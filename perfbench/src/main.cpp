// perfbench: the repo's end-to-end benchmark binary.
//
//   perfbench --workload fm-ahf|join-ahj|agg-sliding --seed N --seconds S
//             --trace 0|1
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero when any
// output differs from the single-threaded reference.
#include <cstdio>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print(const pb::Report& rep, const std::string& workload,
           std::uint64_t seed, bool traced) {
  std::printf("workload %s seed %llu %s\n", workload.c_str(),
              static_cast<unsigned long long>(seed),
              traced ? "(traced run: per-layer metrics)"
                     : "(untraced run: end-to-end metrics)");
  for (const std::string& l : rep.lines) std::printf("%s\n", l.c_str());
  for (const pb::Metric& m : rep.metrics) {
    std::printf("  %-34s %14.6g %-6s n=%-8llu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const pb::Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", json_escape(m.name).c_str(), m.value,
                json_escape(m.unit).c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fm-ahf|join-ahj|agg-sliding "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::stoull(v);
    } else if (k == "--seconds") {
      seconds = std::stod(v);
    } else if (k == "--trace") {
      traced = v == "1";
    } else {
      return usage();
    }
  }
  try {
    pb::Report rep;
    if (workload == "fm-ahf") {
      rep = pb::run_fm_ahf(seed, seconds, traced);
    } else if (workload == "join-ahj") {
      rep = pb::run_join_ahj(seed, seconds, traced);
    } else if (workload == "agg-sliding") {
      rep = pb::run_agg_sliding(seed, seconds, traced);
    } else {
      return usage();
    }
    print(rep, workload, seed, traced);
    return rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
