#include "fm_ahf.hpp"

#include "measure.hpp"
#include "workloads.hpp"

namespace pb {

Report run_fm_ahf(std::uint64_t seed, double seconds, bool traced) {
  return run_workload(FmAhf{.seed = seed}, seconds, traced);
}

}  // namespace pb
