#include "agg_sliding.hpp"

#include "measure.hpp"
#include "workloads.hpp"

namespace pb {

Report run_agg_sliding(std::uint64_t seed, double seconds, bool traced) {
  return run_workload(AggSliding{.seed = seed}, seconds, traced);
}

}  // namespace pb
