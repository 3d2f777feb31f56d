// Tests for the synthetic 2D rangefinder workload.
#include "workloads/scans.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace aggspes::scans {
namespace {

TEST(ScanGenerator, DeterministicPerSeedAndIndex) {
  ScanGenerator g1(7), g2(7), g3(9);
  EXPECT_EQ(g1.make(3), g2.make(3));
  EXPECT_NE(g1.make(3), g3.make(3));
  EXPECT_NE(g1.make(3), g1.make(4));
}

TEST(ScanGenerator, ProducesBoundedReadings) {
  ScanGenerator g(1);
  for (std::uint64_t i = 0; i < 50; ++i) {
    Scan2D s = g.make(i);
    EXPECT_EQ(s.dist.size(), static_cast<std::size_t>(kBeams));
    for (double d : s.dist) {
      EXPECT_GE(d, 0.3);
      EXPECT_LE(d, 8.0);
    }
  }
}

TEST(ToCartesian, PreservesRanges) {
  ScanGenerator g(2);
  Scan2D s = g.make(0);
  CartesianScan c = to_cartesian(s);
  ASSERT_EQ(c.xs.size(), s.dist.size());
  for (std::size_t b = 0; b < s.dist.size(); ++b) {
    EXPECT_NEAR(std::hypot(c.xs[b], c.ys[b]), s.dist[b], 1e-9);
  }
}

TEST(ToCartesianFromReference, RoundTripsThroughPolar) {
  // The reference-point conversion re-expresses each point through polar
  // form; the resulting coordinates must equal the direct shift.
  ScanGenerator g(3);
  Scan2D s = g.make(1);
  CartesianScan direct = to_cartesian(s);
  CartesianScan viaref = to_cartesian_from_reference(s, 1.5, 0.0);
  for (std::size_t b = 0; b < s.dist.size(); ++b) {
    EXPECT_NEAR(viaref.xs[b], direct.xs[b] - 1.5, 1e-9);
    EXPECT_NEAR(viaref.ys[b], direct.ys[b], 1e-9);
  }
}

TEST(AvgDist, MatchesMean) {
  Scan2D s{.id = 0, .dist = {1.0, 2.0, 3.0}};
  EXPECT_NEAR(avg_dist(s), 2.0, 1e-12);
}

TEST(AvgDist, SelectivityNearTable1) {
  // llf forwards scans with avg dist > 3 m; Table 1 selectivity is 0.2.
  ScanGenerator g(42);
  int forwarded = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    forwarded += avg_dist(g.make(std::uint64_t(i))) > 3.0;
  }
  const double sel = static_cast<double>(forwarded) / n;
  EXPECT_GT(sel, 0.1);
  EXPECT_LT(sel, 0.35);
}

TEST(Split3, PartitionsBeams) {
  ScanGenerator g(4);
  CartesianScan c = to_cartesian(g.make(0));
  auto parts = split3(c);
  ASSERT_EQ(parts.size(), 3u);
  std::size_t total = 0;
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(parts[static_cast<std::size_t>(p)].part, p);
    total += parts[static_cast<std::size_t>(p)].xs.size();
  }
  EXPECT_EQ(total, c.xs.size());
  // Concatenation restores the original.
  EXPECT_EQ(parts[0].xs[0], c.xs[0]);
  EXPECT_EQ(parts[2].ys.back(), c.ys.back());
}

TEST(SumAbsDiff, ZeroForIdenticalScans) {
  ScanGenerator g(5);
  Scan2D s = g.make(0);
  EXPECT_EQ(sum_abs_diff(s, s), 0.0);
}

TEST(SumAbsDiff, GrowsWithBaseDistance) {
  ScanGenerator g(6);
  Scan2D a = g.make(0), b = g.make(1);
  EXPECT_GT(sum_abs_diff(a, b), 0.0);
}

TEST(SumAbsDiff, EntryIsCacheLineAligned) {
  // The join benchmark's f_P kernel starts on a cache line whatever code
  // is linked ahead of it (see scans.cpp).
  const auto addr = reinterpret_cast<std::uintptr_t>(&sum_abs_diff);
  EXPECT_EQ(addr % 64, 0u);
}

TEST(MeanBucket, QuantizesMeanDistance) {
  Scan2D s{.id = 0, .dist = std::vector<double>(180, 2.6)};
  EXPECT_EQ(mean_bucket(s), 5);  // 2.6 * 2 = 5.2 -> 5
}

}  // namespace
}  // namespace aggspes::scans
