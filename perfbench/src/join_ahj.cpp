#include "join_ahj.hpp"

#include "measure.hpp"
#include "workloads.hpp"

namespace pb {

Report run_join_ahj(std::uint64_t seed, double seconds, bool traced) {
  return run_workload(JoinAhj{.seed = seed}, seconds, traced);
}

}  // namespace pb
