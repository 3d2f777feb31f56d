// The three workloads, each compiled in its own translation unit.
#pragma once

#include <cstdint>

#include "bench.hpp"

namespace pb {

Report run_fm_ahf(std::uint64_t seed, double seconds, bool traced);
Report run_join_ahj(std::uint64_t seed, double seconds, bool traced);
Report run_agg_sliding(std::uint64_t seed, double seconds, bool traced);

}  // namespace pb
