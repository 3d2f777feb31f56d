// Tumbling windows keyed by all attributes — the shape of the Embed
// operator's δ-window (Listing 1) — on the sliced backend against the
// buffering WindowMachine. On these specs every instance is exactly one
// pane (g = WS); with L = 0 the sliced engine keeps no fired flags and
// fires straight from that pane's cells (DESIGN.md § 9). The fire
// streams must still match the buffering machine fire for fire: the same
// (instance, key, items in arrival order, late-update flag) multiset, and
// the same drop and late-update counters, for L = 0 and L > 0, in order
// and with late arrivals, with exact duplicate tuples in the input.
//
// The mid-stream snapshots are pinned byte for byte: the golden vectors
// below were written by the engine before the one-pane and L = 0 rules,
// so the rules change no snapshot byte (and need no codec version bump).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/hashing.hpp"
#include "core/operators/window_machine.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes {
namespace {

using P = std::pair<int, int>;
using Buffering = WindowMachine<P, P>;
using Sliced = swa::SlicedWindowMachine<P, P>;

/// One fire: instance, key, the items as (ts, stamp, value) in the order
/// delivered, and whether it was a late update.
using Fire = std::tuple<Timestamp, P,
                        std::vector<std::tuple<Timestamp, std::uint64_t, P>>,
                        bool>;

struct Outcome {
  std::vector<Fire> fires;  ///< sorted: key fire order within an instance
                            ///< follows unordered_map iteration
  std::uint64_t dropped{0};
  std::uint64_t late_updates{0};
  std::vector<std::uint8_t> snapshot;  ///< sliced only, after `cut` elements
};

/// Tuples with non-decreasing timestamps (gaps 0..max_gap), payloads from
/// a 3 x 2 domain, and every fourth tuple on average an exact copy of its
/// predecessor's timestamp and payload. Stamps are arrival indices, so the
/// item order of every fire is checked too. splitmix64, not <random>
/// distributions, keeps the stream — and the golden snapshots — the same
/// under every standard library.
std::vector<Tuple<P>> make_tuples(std::uint64_t seed, int n,
                                  Timestamp max_gap) {
  std::vector<Tuple<P>> out;
  std::uint64_t s = seed;
  auto next = [&s](std::uint64_t m) { return (s = splitmix64(s)) % m; };
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    const auto stamp = static_cast<std::uint64_t>(i);
    if (!out.empty() && next(4) == 0) {
      out.push_back({out.back().ts, stamp, out.back().value});
      continue;
    }
    ts += static_cast<Timestamp>(next(static_cast<std::uint64_t>(max_gap) + 1));
    out.push_back({ts, stamp,
                   P{static_cast<int>(next(3)), static_cast<int>(next(2))}});
  }
  return out;
}

/// In order: a watermark equal to the largest timestamp so far after every
/// `wm_every` tuples, so no tuple ever arrives behind one. With `late`,
/// tuples are first shuffled within a window of 6 and each watermark
/// trails the largest timestamp by 0..3 ticks, so some tuples arrive into
/// closed instances (admitted updates under L > 0, drops under L = 0).
std::vector<Element<P>> make_script(std::vector<Tuple<P>> tuples, bool late,
                                    std::uint64_t seed, Timestamp flush_to) {
  std::uint64_t s = seed ^ 0x5eed;
  auto next = [&s](std::uint64_t m) { return (s = splitmix64(s)) % m; };
  if (late) {
    for (std::size_t i = 0; i + 1 < tuples.size(); ++i) {
      const std::size_t span = std::min<std::size_t>(6, tuples.size() - 1 - i);
      std::swap(tuples[i], tuples[i + next(span + 1)]);
    }
  }
  const std::size_t wm_every = late ? 4 : 5;
  std::vector<Element<P>> script;
  Timestamp max_ts = kMinTimestamp;
  Timestamp last_wm = kMinTimestamp;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    script.push_back(tuples[i]);
    max_ts = std::max(max_ts, tuples[i].ts);
    if ((i + 1) % wm_every == 0) {
      const Timestamp w =
          late ? max_ts - static_cast<Timestamp>(next(4)) : max_ts;
      if (w > last_wm) {
        script.push_back(Watermark{w});
        last_wm = w;
      }
    }
  }
  script.push_back(Watermark{flush_to});
  return script;
}

/// Drives a machine the way an Aggregate does: advance(w) on each
/// watermark, add(t, w) under the current one, flush() at the end.
template <typename M>
Outcome drive(M& m, const std::vector<Element<P>>& script, std::size_t cut) {
  Outcome run;
  typename M::FireFn fire = [&run](Timestamp l, const P& key,
                                   const std::vector<Tuple<P>>& items,
                                   bool update) {
    std::vector<std::tuple<Timestamp, std::uint64_t, P>> got;
    for (const Tuple<P>& t : items) got.emplace_back(t.ts, t.stamp, t.value);
    run.fires.emplace_back(l, key, std::move(got), update);
  };
  Timestamp w = kMinTimestamp;
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (i == cut) {
      if constexpr (std::is_same_v<M, Sliced>) {
        SnapshotWriter sw;
        m.save(sw);
        run.snapshot = sw.take();
      }
    }
    if (const auto* t = std::get_if<Tuple<P>>(&script[i])) {
      m.add(*t, w, fire);
    } else if (const auto* wm = std::get_if<Watermark>(&script[i])) {
      w = wm->ts;
      m.advance(w, fire);
    }
  }
  m.flush(fire);
  std::sort(run.fires.begin(), run.fires.end());
  run.dropped = m.dropped_late();
  run.late_updates = m.late_updates();
  return run;
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

struct Case {
  const char* name;
  WindowSpec spec;
  bool late;
  Timestamp max_gap;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (Timestamp lateness : {Timestamp{0}, Timestamp{3}}) {
    for (bool late : {false, true}) {
      out.push_back({"delta", {.advance = kDelta, .size = kDelta,
                               .lateness = lateness}, late, 2});
      out.push_back({"ws50", {.advance = 50, .size = 50,
                              .lateness = lateness * 7}, late, 12});
      // WS | WA: sampling windows are one pane per instance too, with
      // gap tuples that no instance stores.
      out.push_back({"sample", {.advance = 10, .size = 5,
                                .lateness = lateness}, late, 2});
    }
  }
  return out;
}

TEST(SwaTumbling, SlicedMatchesBufferingKeyedByAllAttributes) {
  for (const Case& c : cases()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(c.name) + " L=" +
                   std::to_string(c.spec.lateness) +
                   (c.late ? " late" : " in-order") +
                   " seed=" + std::to_string(seed));
      auto tuples = make_tuples(seed, 400, c.max_gap);
      const Timestamp flush_to =
          tuples.back().ts + c.spec.size + c.spec.lateness + 1;
      const auto script = make_script(std::move(tuples), c.late, seed,
                                      flush_to);
      auto key_all = [](const P& v) { return v; };
      Buffering buffering(c.spec, key_all);
      Sliced sliced(c.spec, key_all);
      const Outcome want = drive(buffering, script, script.size());
      const Outcome got = drive(sliced, script, script.size());
      ASSERT_FALSE(want.fires.empty());
      EXPECT_EQ(got.fires, want.fires);
      EXPECT_EQ(got.dropped, want.dropped);
      EXPECT_EQ(got.late_updates, want.late_updates);
      if (c.late && c.spec.lateness == 0) {
        EXPECT_GT(want.dropped, 0u);
      }
      if (c.late && c.spec.lateness > 0) {
        EXPECT_GT(want.late_updates, 0u);
      }
      if (c.spec.lateness == 0) {
        EXPECT_EQ(got.late_updates, 0u);
      }
    }
  }
}

/// The sliced machine's snapshot after `cut` script elements.
std::string snapshot_hex(const Case& c, std::size_t cut) {
  auto tuples = make_tuples(11, 120, c.max_gap);
  const Timestamp flush_to =
      tuples.back().ts + c.spec.size + c.spec.lateness + 1;
  const auto script = make_script(std::move(tuples), c.late, 11, flush_to);
  Sliced sliced(c.spec, [](const P& v) { return v; });
  return hex(drive(sliced, script, cut).snapshot);
}

TEST(SwaTumbling, MidStreamSnapshotBytesUnchanged) {
  // L = 0, in order: the fired-flag section is empty.
  EXPECT_EQ(snapshot_hex({"ws50", {.advance = 50, .size = 50}, false, 12},
                         /*cut=*/61),
            "0100000000000000c80000000000000004000000000000000100000001000000"
            "02000000000000002f00000000000000de000000000000002f00000000000000"
            "01000000010000003000000000000000de000000000000003000000000000000"
            "0100000001000000020000000100000002000000000000002b00000000000000"
            "d6000000000000002b0000000000000002000000010000002c00000000000000"
            "da000000000000002c0000000000000002000000010000000000000000000000"
            "05000000000000002900000000000000d1000000000000002900000000000000"
            "00000000000000002a00000000000000d1000000000000002a00000000000000"
            "00000000000000002d00000000000000db000000000000002d00000000000000"
            "00000000000000002e00000000000000db000000000000002e00000000000000"
            "00000000000000003100000000000000e5000000000000003100000000000000"
            "0000000000000000020000000000000002000000000000002800000000000000"
            "d000000000000000280000000000000002000000000000003200000000000000"
            "e800000000000000320000000000000002000000000000000000000000000000"
            "01c800000000000000c800000000000000330000000000000000000000000000"
            "0000000000000000001300000000000000");
  // Late arrivals: drops under L = 0 (still no fired flags), then late
  // updates under L > 0 (open fired flags in the snapshot).
  EXPECT_EQ(snapshot_hex({"delta", {.advance = kDelta, .size = kDelta},
                          true, 2},
                         /*cut=*/77),
            "0200000000000000380000000000000001000000000000000200000001000000"
            "0300000000000000260000000000000038000000000000003d00000000000000"
            "0200000001000000280000000000000038000000000000003e00000000000000"
            "02000000010000002a0000000000000038000000000000003f00000000000000"
            "02000000010000003a0000000000000001000000000000000100000000000000"
            "010000000000000029000000000000003a000000000000004000000000000000"
            "0100000000000000000000000000000001370000000000000037000000000000"
            "002b00000000000000150000000000000000000000000000001f000000000000"
            "00");
  EXPECT_EQ(snapshot_hex({"delta", {.advance = kDelta, .size = kDelta,
                                    .lateness = 3},
                          true, 2},
                         /*cut=*/77),
            "0400000000000000340000000000000001000000000000000000000000000000"
            "0200000000000000280000000000000034000000000000003800000000000000"
            "00000000000000002c0000000000000034000000000000003a00000000000000"
            "0000000000000000360000000000000002000000000000000000000001000000"
            "01000000000000002e0000000000000036000000000000003b00000000000000"
            "0000000001000000010000000000000001000000000000002b00000000000000"
            "36000000000000003c0000000000000001000000000000003800000000000000"
            "0100000000000000020000000100000003000000000000002d00000000000000"
            "38000000000000003d0000000000000002000000010000002f00000000000000"
            "38000000000000003e0000000000000002000000010000003200000000000000"
            "38000000000000003f0000000000000002000000010000003a00000000000000"
            "0100000000000000010000000000000001000000000000003000000000000000"
            "3a00000000000000400000000000000001000000000000000200000000000000"
            "3400000000000000010000000000000000000000000000000136000000000000"
            "0002000000000000000000000001000000010100000000000000010137000000"
            "00000000340000000000000033000000000000000d0000000000000004000000"
            "000000001f00000000000000");
}

}  // namespace
}  // namespace aggspes
