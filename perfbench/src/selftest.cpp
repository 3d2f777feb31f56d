// The benchmark's own test: span self-time arithmetic on synthetic nested
// traces, for both the recorded-trace aggregation and the per-thread stack
// the live tracer uses. Exits non-zero on the first wrong number.
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(const std::string& what, double got, double want) {
  if (got != want) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what.c_str(), got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using pb::trace::Span;
  // A [0,100] has children B [10,40] and C [30,70] (overlapping each
  // other), and E [90,120], which runs past its parent and is clipped to
  // it. C has child D [50,60]. Self times: A = 100 - |[10,70] u [90,100]|
  // = 30, B = 30, C = 40 - 10 = 30, D = 10, E = 30.
  const std::vector<Span> trace = {
      {"A", 0, 100, -1}, {"B", 10, 40, 0}, {"C", 30, 70, 0},
      {"D", 50, 60, 2},  {"E", 90, 120, 0},
  };
  auto agg = pb::trace::aggregate(trace);
  expect("A self", static_cast<double>(agg["A"].self_ns), 30);
  expect("A total", static_cast<double>(agg["A"].total_ns), 100);
  expect("B self", static_cast<double>(agg["B"].self_ns), 30);
  expect("C self", static_cast<double>(agg["C"].self_ns), 30);
  expect("D self", static_cast<double>(agg["D"].self_ns), 10);
  expect("E self", static_cast<double>(agg["E"].self_ns), 30);

  // Same-name spans aggregate: two roots X [0,10] and X [20,50] with one
  // child Y [25,35] under the second: X count 2, total 40, self 30.
  auto rep = pb::trace::aggregate(
      {{"X", 0, 10, -1}, {"X", 20, 50, -1}, {"Y", 25, 35, 1}});
  expect("X count", static_cast<double>(rep["X"].count), 2);
  expect("X total", static_cast<double>(rep["X"].total_ns), 40);
  expect("X self", static_cast<double>(rep["X"].self_ns), 30);

  // The live per-thread stack on a properly nested trace must agree with
  // the recorded-trace arithmetic: A [0,100] > B [10,40], C [40,70] > D
  // [50,60]; A self = 100 - 30 - 30 = 40, C self = 20.
  pb::trace::ThreadLog log;
  log.begin(0, 1, 0);    // A
  log.begin(1, 1, 10);   // B
  log.end(40);
  log.begin(2, 1, 40);   // C
  log.begin(3, 1, 50);   // D
  log.end(60);
  log.end(70);
  log.end(100);
  auto nested = pb::trace::aggregate({{"A", 0, 100, -1},
                                      {"B", 10, 40, 0},
                                      {"C", 40, 70, 0},
                                      {"D", 50, 60, 2}});
  const char* names[] = {"A", "B", "C", "D"};
  for (int i = 0; i < 4; ++i) {
    const std::string n = names[i];
    expect("stack " + n + " self", static_cast<double>(log.stats[i].self_ns),
           static_cast<double>(nested[n].self_ns));
    expect("stack " + n + " total", static_cast<double>(log.stats[i].total_ns),
           static_cast<double>(nested[n].total_ns));
  }
  expect("stack A self", static_cast<double>(log.stats[0].self_ns), 40);
  expect("stack C self", static_cast<double>(log.stats[2].self_ns), 20);

  // Sampled children: a child timed once for every 4 calls counts 4x. In
  // P [0,10] the scaled child (4 x 5 ns) exceeds the span; P [20,60] has
  // none. P's self time is 10 - 20 + 40 = 30, unbiased, not clipped.
  pb::trace::ThreadLog sampled;
  sampled.begin(0, 1, 0);
  sampled.begin(1, 1, 2, 4);
  sampled.end(7);
  sampled.end(10);
  sampled.begin(0, 1, 20);
  sampled.end(60);
  expect("sampled child total", static_cast<double>(sampled.stats[1].total_ns), 20);
  expect("sampled child count", static_cast<double>(sampled.stats[1].count), 4);
  expect("sampled parent self", static_cast<double>(sampled.stats[0].self_ns), 30);

  // Quantiles match Python's statistics.quantiles(method='inclusive') /
  // numpy's linear interpolation.
  expect("median even", pb::median({4, 1, 3, 2}), 2.5);
  expect("p99", pb::quantile({0, 100}, 0.99), 99);

  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
