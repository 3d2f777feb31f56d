// Multi-query snapshot codec pin (`ctest -L multiquery`): mid-stream
// snapshots of MultiQueryMonoidOp and MultiQueryReplayOp, compared byte
// for byte against golden vectors. The vectors were written by the
// lattice before it became the Q-query case of the one pane engine, so a
// refactor of the engine or of the multi-query node body that changes any
// snapshot byte fails here (kMultiQueryCodecVersion stays 1). Together
// with SwaTumbling.MidStreamSnapshotBytesUnchanged (the single-query
// layout) this pins both snapshot layouts of the pane engine.
//
// Q = 3 over one lattice of pane width 5: a tumbling L = 0 query (one pane
// per instance, so no fired flags), and two sliding L > 0 queries whose
// open fired flags fill the per-query flag sections. The stream is shuffled
// and the watermark lags, so the cut lands after dropped late tuples and
// admitted late updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/hashing.hpp"
#include "core/runtime/multi_query.hpp"

namespace aggspes {
namespace {

const std::vector<WindowSpec> kSpecs = {
    {.advance = 5, .size = 5, .lateness = 0},
    {.advance = 5, .size = 15, .lateness = 6},
    {.advance = 10, .size = 20, .lateness = 4},
};

int key_of(const int& v) { return v % 4; }

/// Tuples with timestamps advancing by 0..3, shuffled within a window of
/// 6; a watermark after every fourth tuple trails the largest timestamp
/// by 0..5 ticks. splitmix64, not <random> distributions, keeps the script
/// — and the golden bytes — the same under every standard library.
std::vector<Element<int>> make_script(std::uint64_t seed, int n) {
  std::uint64_t s = seed;
  auto next = [&s](std::uint64_t m) { return (s = splitmix64(s)) % m; };
  std::vector<Tuple<int>> tuples;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += static_cast<Timestamp>(next(4));
    tuples.push_back({ts, static_cast<std::uint64_t>(i),
                      static_cast<int>(next(20))});
  }
  for (std::size_t i = 0; i + 1 < tuples.size(); ++i) {
    const std::size_t span = std::min<std::size_t>(6, tuples.size() - 1 - i);
    std::swap(tuples[i], tuples[i + next(span + 1)]);
  }
  std::vector<Element<int>> script;
  Timestamp max_ts = kMinTimestamp;
  Timestamp last_wm = kMinTimestamp;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    script.push_back(tuples[i]);
    max_ts = std::max(max_ts, tuples[i].ts);
    if ((i + 1) % 4 == 0) {
      const Timestamp w = max_ts - static_cast<Timestamp>(next(6));
      if (w > last_wm) {
        script.push_back(Watermark{w});
        last_wm = w;
      }
    }
  }
  return script;
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

/// Feeds the first `cut` script elements to `op`'s input port and returns
/// its snapshot; the outlets are unconnected, so fires go nowhere. With
/// `blocks`, each tuple run between watermarks arrives as one block, as a
/// block channel delivers it (the node's add_block path).
template <typename Op>
std::string snapshot_after(Op& op, std::size_t cut, bool blocks = false) {
  const auto script = make_script(13, 160);
  std::vector<Tuple<int>> run;
  auto drain = [&] {
    op.in(0).receive_block(run.data(), run.size());
    run.clear();
  };
  for (std::size_t i = 0; i < cut; ++i) {
    const auto* t = std::get_if<Tuple<int>>(&script[i]);
    if (blocks && t != nullptr) {
      run.push_back(*t);
      continue;
    }
    if (!run.empty()) drain();
    op.in(0).receive(script[i]);
  }
  if (!run.empty()) drain();
  // The cut sits after both kinds of late arrival the layouts must carry.
  EXPECT_GT(op.lattice().dropped_late(0), 0u);
  EXPECT_GT(op.lattice().late_updates(1) + op.lattice().late_updates(2), 0u);
  SnapshotWriter w;
  op.snapshot_to(w);
  return hex(w.take());
}

/// Both delivery modes of a fresh operator from `make_op` must write
/// `golden` at the cut.
template <typename MakeOp>
void expect_snapshot(MakeOp make_op, const std::string& golden) {
  for (bool blocks : {false, true}) {
    SCOPED_TRACE(blocks ? "block delivery" : "per-element delivery");
    auto op = make_op();
    EXPECT_EQ(snapshot_after(*op, 150, blocks), golden);
  }
}

TEST(MultiQueryGolden, MonoidOpMidStreamSnapshotBytesUnchanged) {
  expect_snapshot(
      [] {
        std::vector<MonoidQuery<long, int, long>> queries;
        for (const WindowSpec& s : kSpecs) {
          queries.push_back(
              {s, [](const int&, const swa::WindowAggregate<long>& wa)
                      -> std::optional<long> { return wa.agg; }});
        }
        return std::make_unique<MultiQueryMonoidOp<int, long, int, long>>(
            std::move(queries), key_of,
            swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                                   [](const long& a, const long& b) {
                                     return a + b;
                                   }});
      },
      "0100000000000000c100000000000000c1000000000000000100000000000000"
      "000700000000000000aa000000000000000200000000000000030000001a0000"
      "000000000002000000000000006e000000000000000000000018000000000000"
      "0002000000000000007000000000000000af0000000000000002000000000000"
      "00030000000f0000000000000001000000000000007200000000000000010000"
      "00050000000000000001000000000000007100000000000000b4000000000000"
      "0002000000000000000000000008000000000000000100000000000000760000"
      "0000000000020000001e00000000000000030000000000000075000000000000"
      "00b9000000000000000300000000000000000000000800000000000000010000"
      "00000000007700000000000000030000000b0000000000000001000000000000"
      "0079000000000000000200000006000000000000000100000000000000780000"
      "0000000000be000000000000000100000000000000010000000d000000000000"
      "0001000000000000007b00000000000000c30000000000000002000000000000"
      "0003000000130000000000000001000000000000007d00000000000000000000"
      "00080000000000000001000000000000007c00000000000000c8000000000000"
      "00010000000000000002000000120000000000000001000000000000007f0000"
      "00000000007b000000000000000300000000000000000000000000000001be00"
      "000000000000be00000000000000240000000000000000000000000000004800"
      "0000000000000100000000000000af0000000000000004000000000000000300"
      "00000101000000010000000001020000000101b400000000000000af00000000"
      "00000025000000000000001a000000000000007c000000000000000100000000"
      "000000aa00000000000000040000000000000003000000010100000001000000"
      "0001020000000101b400000000000000aa000000000000001300000000000000"
      "0c000000000000004300000000000000");
}

TEST(MultiQueryGolden, ReplayOpMidStreamSnapshotBytesUnchanged) {
  expect_snapshot(
      [] {
        std::vector<ReplayQuery<int, long, int>> queries;
        for (const WindowSpec& s : kSpecs) {
          queries.push_back({s, [](const WindowView<int, int>& w)
                                    -> std::optional<long> {
                               long sum = 0;
                               for (const Tuple<int>& t : w.items) {
                                 sum += t.value;
                               }
                               return sum;
                             }});
        }
        return std::make_unique<MultiQueryReplayOp<int, long, int>>(
            std::move(queries), key_of);
      },
      "0100000000000000c100000000000000c1000000000000000100000000000000"
      "000700000000000000aa00000000000000020000000000000003000000020000"
      "00000000006b00000000000000ac000000000000006d000000000000000f0000"
      "006c00000000000000ac000000000000006e000000000000000b000000000000"
      "0002000000000000006900000000000000ae0000000000000070000000000000"
      "00080000006d00000000000000ad000000000000006f00000000000000100000"
      "00af000000000000000200000000000000030000000100000000000000720000"
      "0000000000b10000000000000072000000000000000f00000001000000010000"
      "00000000006e00000000000000b1000000000000007100000000000000050000"
      "00b4000000000000000200000000000000000000000100000000000000750000"
      "0000000000b80000000000000076000000000000000800000002000000030000"
      "00000000006f00000000000000b4000000000000007300000000000000060000"
      "007300000000000000b60000000000000075000000000000000e000000740000"
      "0000000000b50000000000000074000000000000000a000000b9000000000000"
      "0003000000000000000000000001000000000000007600000000000000ba0000"
      "0000000000770000000000000008000000030000000100000000000000710000"
      "0000000000bd0000000000000079000000000000000b00000002000000010000"
      "00000000007000000000000000bc000000000000007800000000000000060000"
      "00be0000000000000001000000000000000100000001000000000000007a0000"
      "0000000000c2000000000000007b000000000000000d000000c3000000000000"
      "0002000000000000000300000001000000000000007800000000000000c60000"
      "00000000007d0000000000000013000000000000000100000000000000770000"
      "0000000000c3000000000000007c0000000000000008000000c8000000000000"
      "0001000000000000000200000001000000000000007900000000000000c80000"
      "00000000007f00000000000000120000007b0000000000000003000000000000"
      "00000000000000000001be00000000000000be00000000000000240000000000"
      "0000000000000000000048000000000000000100000000000000af0000000000"
      "00000400000000000000030000000101000000010000000001020000000101b4"
      "00000000000000af0000000000000025000000000000001a000000000000007c"
      "000000000000000100000000000000aa00000000000000040000000000000003"
      "0000000101000000010000000001020000000101b400000000000000aa000000"
      "0000000013000000000000000c000000000000004300000000000000");
}

}  // namespace
}  // namespace aggspes
