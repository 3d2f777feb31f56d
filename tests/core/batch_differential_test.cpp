// Batch-vs-scalar differential suite (DESIGN.md § 16): the micro-batched
// ingest path — SlicedEngine::add_block + the columnar kernels — must be
// BYTE-identical to per-tuple add() for every arithmetic monoid, over both
// FIFO policies (two-stacks and DABA Lite), across randomized schedules
// with reorder, admitted-late re-fires, dropped-late tuples, watermark
// interleaves and random block splits. Diagnostics (occupancy, peaks,
// dropped_late, late_updates, fired_instances, shed/admitted counts) must
// be counter-identical too. Aggregates are compared as raw bit patterns,
// so a -0.0/+0.0 or reassociation drift in a double sum fails the suite.
//
// The shared lattice — the same engine serving Q queries — is held to the
// same bar at Q = 1 and Q = 16: byte-identical fires, per-query dropped /
// late / shed counters, and an identical shedder decision record.
//
// Also pins the kernel legality story (satellite checks): the
// kHasBatchAbsorb trait is true exactly for the monoid FIFO family (the
// replay policy and the out-of-order finger tree have no absorb_run and
// always run scalar), the stock arithmetic monoids carry their kind +
// kCommutative tags, and untagged monoids never enter a kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/runtime/overload.hpp"
#include "core/swa/backends.hpp"
#include "core/swa/batch_kernels.hpp"
#include "core/swa/daba.hpp"
#include "core/swa/finger_tree.hpp"
#include "core/swa/monoid.hpp"
#include "core/swa/monoid_machine.hpp"
#include "core/swa/shared_lattice.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes {
namespace {

using swa::Monoid;
using swa::MonoidKind;

/// Raw bit pattern of an aggregate — the comparison currency of the whole
/// suite (operator== would call -0.0 and +0.0 the same value).
template <typename T>
std::uint64_t bits_of(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    static_assert(sizeof(T) <= sizeof(std::uint64_t));
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(v));
    return b;
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

/// (instance, key, agg bits, count, stamp, is_update) — everything a fire
/// hands downstream.
using FireRec =
    std::tuple<Timestamp, int, std::uint64_t, std::uint64_t, std::uint64_t,
               bool>;

struct Diag {
  std::uint64_t dropped_late{0};
  std::uint64_t late_updates{0};
  std::uint64_t fired_instances{0};
  std::uint64_t occupancy{0};
  std::uint64_t peak_occupancy{0};
  std::uint64_t peak_panes{0};
  std::uint64_t shed{0};
  std::uint64_t admitted{0};

  bool operator==(const Diag&) const = default;
};

struct RunOut {
  std::vector<FireRec> fires;
  Diag diag;
};

/// One script event: a tuple arrival or a watermark advance.
template <typename In>
struct Ev {
  bool is_wm{false};
  Tuple<In> t{};
  Timestamp w{kMinTimestamp};
};

/// Locally-shuffled tuples with trailing watermarks, as in the sliced
/// equivalence suite: some shuffled tuples arrive late-but-admitted
/// (re-fires), some beyond the lateness bound (drops).
template <typename In>
std::vector<Ev<In>> random_script(unsigned seed, int n, const WindowSpec& spec) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 2);
  std::uniform_int_distribution<int> val(-40, 40);
  std::vector<Tuple<In>> tuples;
  Timestamp ts = -30;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    tuples.push_back({ts, static_cast<std::uint64_t>(rng() % 1000),
                      static_cast<In>(val(rng))});
  }
  std::uniform_int_distribution<std::size_t> k(0, 10);
  for (std::size_t i = 0; i + 1 < tuples.size(); ++i) {
    std::uniform_int_distribution<std::size_t> d(
        i, std::min(tuples.size() - 1, i + k(rng)));
    std::swap(tuples[i], tuples[d(rng)]);
  }
  std::uniform_int_distribution<Timestamp> slack(0, 5);
  std::vector<Ev<In>> script;
  Timestamp max_ts = kMinTimestamp;
  Timestamp last_wm = kMinTimestamp;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    script.push_back({false, tuples[i], kMinTimestamp});
    max_ts = std::max(max_ts, tuples[i].ts);
    if ((i + 1) % 9 == 0) {
      const Timestamp w = max_ts - slack(rng);
      if (w > last_wm) {
        script.push_back({true, {}, w});
        last_wm = w;
      }
    }
  }
  const Timestamp flush =
      tuples.empty() ? 0 : max_ts + spec.size + spec.lateness + 5;
  script.push_back({true, {}, flush});
  return script;
}

ShedConfig shed_cfg(unsigned seed) {
  ShedConfig cfg;
  cfg.policy = ShedPolicy::kRandomP;
  cfg.p_pressured = 0.25;
  cfg.seed = seed;
  return cfg;
}

/// Runs `script` through one engine. `block_rng_seed == 0` takes the
/// per-tuple scalar path (the oracle); otherwise tuple runs between
/// watermarks are fed through add_block in random-sized sub-blocks
/// spanning 1 .. past both the kernel chunk (256) and the channel block.
template <typename Policy, typename In, typename Agg>
RunOut run_engine(const Monoid<In, Agg>& m, const std::vector<Ev<In>>& script,
                  const WindowSpec& spec, int n_keys, unsigned block_rng_seed,
                  const Shedder* shed_template = nullptr,
                  const OverloadMonitor* monitor = nullptr) {
  swa::SlicedEngine<In, int, Policy> eng(
      spec, [n_keys](const In& v) { return static_cast<int>(v) % n_keys; },
      Policy(m));
  std::optional<Shedder> shedder;
  if (shed_template != nullptr) {
    shedder.emplace(shed_template->config(), monitor);
    eng.set_shedder(&*shedder);
  }
  RunOut out;
  auto fire = [&](Timestamp l, const int& key,
                  const swa::WindowAggregate<Agg>& r, bool update) {
    out.fires.emplace_back(l, key, bits_of(r.agg), r.count, r.stamp, update);
  };
  std::mt19937 brng(block_rng_seed);
  std::uniform_int_distribution<std::size_t> bsz(1, 300);
  std::vector<Tuple<In>> run;
  Timestamp w = kMinTimestamp;
  auto drain = [&] {
    std::size_t i = 0;
    while (i < run.size()) {
      const std::size_t n = std::min(bsz(brng), run.size() - i);
      eng.add_block(run.data() + i, n, w, fire);
      i += n;
    }
    run.clear();
  };
  for (const Ev<In>& ev : script) {
    if (ev.is_wm) {
      if (block_rng_seed != 0) drain();
      eng.advance(ev.w, fire);
      w = ev.w;
    } else if (block_rng_seed == 0) {
      eng.add(ev.t, w, fire);
    } else {
      run.push_back(ev.t);
    }
  }
  if (block_rng_seed != 0) drain();
  out.diag = {eng.dropped_late(),
              eng.late_updates(),
              eng.fired_instances(),
              eng.occupancy(),
              eng.peak_occupancy(),
              eng.peak_panes(),
              shedder ? shedder->shed() : 0,
              shedder ? shedder->admitted() : 0};
  eng.flush(fire);
  return out;
}

/// Instance-key fire order can differ only within unordered_map iteration;
/// a stable sort on (l, key) keeps each (l, key)'s re-fire sequence intact
/// while making the comparison deterministic.
void canonicalize(std::vector<FireRec>& v) {
  std::stable_sort(v.begin(), v.end(), [](const FireRec& a, const FireRec& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) <
           std::tie(std::get<0>(b), std::get<1>(b));
  });
}

template <typename In, typename Agg>
void check_both_policies(const Monoid<In, Agg>& m, const char* what,
                         bool with_shedder) {
  using TwoStacksP = swa::MonoidPolicy<In, Agg, int>;
  using DabaP = swa::DabaPolicy<In, Agg, int>;
  const std::vector<WindowSpec> specs = {
      {.advance = 4, .size = 10, .lateness = 5},
      {.advance = 5, .size = 5, .lateness = 3},
      {.advance = 3, .size = 17, .lateness = 8},
  };
  // A monitor pinned at kPressured so RandomP shedders actually shed with
  // their seeded deterministic stream (no live flow needed).
  OverloadMonitor monitor(OverloadThresholds{.pressured_occupancy = 0.0,
                                             .overloaded_occupancy = 2.0});
  monitor.observe({}, 0, kMinTimestamp);
  for (std::size_t si = 0; si < specs.size(); ++si) {
    for (unsigned seed : {11u, 22u, 33u}) {
      for (int n_keys : {1, 3}) {
        auto script = random_script<In>(seed + static_cast<unsigned>(si) * 97,
                                        900, specs[si]);
        std::optional<Shedder> tmpl;
        if (with_shedder) tmpl.emplace(shed_cfg(seed), &monitor);
        const Shedder* st = tmpl ? &*tmpl : nullptr;
        const OverloadMonitor* mon = tmpl ? &monitor : nullptr;

        RunOut scalar = run_engine<TwoStacksP>(m, script, specs[si], n_keys,
                                               /*block_rng_seed=*/0, st, mon);
        RunOut batch = run_engine<TwoStacksP>(m, script, specs[si], n_keys,
                                              seed + 1, st, mon);
        ASSERT_GT(scalar.fires.size(), 0u) << what;
        canonicalize(scalar.fires);
        canonicalize(batch.fires);
        EXPECT_EQ(batch.fires, scalar.fires)
            << what << " two-stacks spec " << si << " seed " << seed
            << " keys " << n_keys;
        EXPECT_EQ(batch.diag, scalar.diag)
            << what << " two-stacks diagnostics spec " << si << " seed "
            << seed;

        // DABA gets its own scalar oracle: batched-vs-scalar must be
        // byte-identical per policy. (Cross-policy equality additionally
        // holds for associative monoids — the swa_equivalence suite pins
        // that — but an untagged non-associative combine may associate
        // differently across FIFO structures, so it is not asserted here.)
        RunOut daba_oracle = run_engine<DabaP>(m, script, specs[si], n_keys,
                                               /*block_rng_seed=*/0, st, mon);
        RunOut daba = run_engine<DabaP>(m, script, specs[si], n_keys,
                                        seed + 2, st, mon);
        canonicalize(daba_oracle.fires);
        canonicalize(daba.fires);
        EXPECT_EQ(daba.fires, daba_oracle.fires)
            << what << " daba spec " << si << " seed " << seed << " keys "
            << n_keys;
        EXPECT_EQ(daba.diag, daba_oracle.diag)
            << what << " daba diagnostics spec " << si << " seed " << seed;
      }
    }
  }
}

TEST(BatchDifferential, SumInt64) {
  check_both_policies(swa::sum_monoid<long long>(), "sum<i64>", false);
}

TEST(BatchDifferential, SumDoubleBitExact) {
  check_both_policies(swa::sum_monoid<double>(), "sum<f64>", false);
}

TEST(BatchDifferential, MinInt64) {
  check_both_policies(swa::min_monoid<long long>(1 << 30), "min<i64>", false);
}

TEST(BatchDifferential, MaxInt64) {
  check_both_policies(swa::max_monoid<long long>(-(1 << 30)), "max<i64>",
                      false);
}

TEST(BatchDifferential, MinMaxDoubleBitExact) {
  check_both_policies(swa::min_monoid<double>(1e30), "min<f64>", false);
  check_both_policies(swa::max_monoid<double>(-1e30), "max<f64>", false);
}

TEST(BatchDifferential, CountOverInt) {
  check_both_policies(swa::count_monoid<int>(), "count", false);
}

TEST(BatchDifferential, UntaggedNonCommutativeMonoidStaysScalarAndMatches) {
  // An order-sensitive fold with no kind tag: add_block may still batch
  // the store, but the fold must run per tuple in sequence — any illegal
  // kernel or reorder shows up as a value mismatch.
  Monoid<int, long long> m{
      0, [](const int& v) { return static_cast<long long>(v); },
      [](const long long& a, const long long& b) {
        // Wrapping arithmetic in uint64: signed overflow would be UB.
        return static_cast<long long>(static_cast<std::uint64_t>(a) * 31 +
                                      static_cast<std::uint64_t>(b));
      }};
  ASSERT_EQ(m.kind, MonoidKind::kGeneric);
  ASSERT_FALSE(m.commutative);
  check_both_policies(m, "untagged", false);
}

TEST(BatchDifferential, ShedderDecisionStreamIdenticalUnderBatching) {
  // Admission is consulted exactly once per tuple in arrival order on both
  // paths, so the seeded shedder's decision stream — and therefore every
  // shed/admitted counter and every output — is identical.
  check_both_policies(swa::sum_monoid<long long>(), "sum<i64>+shed", true);
  check_both_policies(swa::sum_monoid<double>(), "sum<f64>+shed", true);
}

// --- The shared lattice: the same engine at Q >= 1 ----------------------

/// Sixteen specs with one shared pane width of 2: sliding, tumbling with
/// L = 0 (one-pane fires, no fired flags), hopping with WS < WA gaps, and
/// lateness from 0 to 9.
std::vector<WindowSpec> lattice_specs() {
  return {
      {.advance = 4, .size = 12, .lateness = 5},
      {.advance = 2, .size = 2, .lateness = 0},
      {.advance = 6, .size = 2, .lateness = 3},
      {.advance = 4, .size = 4, .lateness = 0},
      {.advance = 2, .size = 10, .lateness = 9},
      {.advance = 8, .size = 16, .lateness = 2},
      {.advance = 6, .size = 6, .lateness = 4},
      {.advance = 10, .size = 4, .lateness = 0},
      {.advance = 2, .size = 6, .lateness = 1},
      {.advance = 12, .size = 24, .lateness = 7},
      {.advance = 4, .size = 8, .lateness = 0},
      {.advance = 6, .size = 18, .lateness = 6},
      {.advance = 2, .size = 4, .lateness = 8},
      {.advance = 14, .size = 14, .lateness = 3},
      {.advance = 8, .size = 2, .lateness = 5},
      {.advance = 10, .size = 30, .lateness = 2},
  };
}

/// (query, instance, key, agg bits, count, stamp, is_update).
using LatticeFireRec = std::tuple<int, Timestamp, int, std::uint64_t,
                                  std::uint64_t, std::uint64_t, bool>;

struct LatticeOut {
  std::vector<LatticeFireRec> fires;
  /// Per query: dropped late, late updates, fired instances, shed.
  std::vector<std::array<std::uint64_t, 4>> per_query;
  Diag diag;
  std::map<int, std::uint64_t> shed_by_query;
  std::map<std::uint64_t, std::uint64_t> shed_by_key;

  bool operator==(const LatticeOut&) const = default;
};

/// run_engine for a lattice over `specs`: the same script, scalar or in
/// random sub-blocks, with the per-query counters and the shedder's full
/// decision record (per query and per key) collected.
template <typename Policy, typename In, typename Agg>
LatticeOut run_lattice(const Monoid<In, Agg>& m,
                       const std::vector<Ev<In>>& script,
                       const std::vector<WindowSpec>& specs, int n_keys,
                       unsigned block_rng_seed, const Shedder* shed_template,
                       const OverloadMonitor* monitor) {
  swa::SharedLattice<In, int, Policy> lat(
      specs, [n_keys](const In& v) { return static_cast<int>(v) % n_keys; },
      Policy(m));
  std::optional<Shedder> shedder;
  if (shed_template != nullptr) {
    shedder.emplace(shed_template->config(), monitor);
    lat.set_shedder(&*shedder);
  }
  LatticeOut out;
  auto fire = [&](int q, Timestamp l, const int& key,
                  const swa::WindowAggregate<Agg>& r, bool update) {
    out.fires.emplace_back(q, l, key, bits_of(r.agg), r.count, r.stamp,
                           update);
  };
  std::mt19937 brng(block_rng_seed);
  std::uniform_int_distribution<std::size_t> bsz(1, 300);
  std::vector<Tuple<In>> run;
  Timestamp w = kMinTimestamp;
  auto drain = [&] {
    std::size_t i = 0;
    while (i < run.size()) {
      const std::size_t n = std::min(bsz(brng), run.size() - i);
      lat.add_block(run.data() + i, n, w, fire);
      i += n;
    }
    run.clear();
  };
  for (const Ev<In>& ev : script) {
    if (ev.is_wm) {
      if (block_rng_seed != 0) drain();
      lat.advance(ev.w, fire);
      w = ev.w;
    } else if (block_rng_seed == 0) {
      lat.add(ev.t, w, fire);
    } else {
      run.push_back(ev.t);
    }
  }
  if (block_rng_seed != 0) drain();
  for (int q = 0; q < lat.query_count(); ++q) {
    out.per_query.push_back({lat.dropped_late(q), lat.late_updates(q),
                             lat.fired_instances(q), lat.shed_for_query(q)});
  }
  // Per-query counters are in per_query; diag holds the shared ones.
  out.diag.occupancy = lat.occupancy();
  out.diag.peak_occupancy = lat.peak_occupancy();
  out.diag.peak_panes = lat.peak_panes();
  out.diag.shed = shedder ? shedder->shed() : 0;
  out.diag.admitted = shedder ? shedder->admitted() : 0;
  if (shedder) {
    out.shed_by_query = shedder->shed_by_query();
    out.shed_by_key = {shedder->shed_by_key().begin(),
                       shedder->shed_by_key().end()};
  }
  lat.flush(fire);
  std::stable_sort(out.fires.begin(), out.fires.end(),
                   [](const LatticeFireRec& a, const LatticeFireRec& b) {
                     return std::tie(std::get<0>(a), std::get<1>(a),
                                     std::get<2>(a)) <
                            std::tie(std::get<0>(b), std::get<1>(b),
                                     std::get<2>(b));
                   });
  return out;
}

/// Batched-vs-scalar on the lattice at Q = 1 (three single specs) and
/// Q = 16, with and without a seeded shedder, under the multi-query
/// node's own policy (LatticeMonoidPolicy) and the two-stacks policy whose
/// absorb_run takes the columnar path through the lattice.
template <typename Policy, typename In, typename Agg>
void check_lattice(const Monoid<In, Agg>& m, const char* what) {
  const std::vector<WindowSpec> all = lattice_specs();
  const std::vector<std::vector<WindowSpec>> lattices = {
      {all[0]}, {all[1]}, {all[2]}, all};
  const WindowSpec widest{.advance = 1, .size = 30, .lateness = 9};
  OverloadMonitor monitor(OverloadThresholds{.pressured_occupancy = 0.0,
                                             .overloaded_occupancy = 2.0});
  monitor.observe({}, 0, kMinTimestamp);
  for (const auto& specs : lattices) {
    for (unsigned seed : {11u, 22u}) {
      for (bool with_shedder : {false, true}) {
        const auto script = random_script<In>(seed, 900, widest);
        std::optional<Shedder> tmpl;
        if (with_shedder) tmpl.emplace(shed_cfg(seed), &monitor);
        const Shedder* st = tmpl ? &*tmpl : nullptr;
        const OverloadMonitor* mon = tmpl ? &monitor : nullptr;
        const LatticeOut scalar = run_lattice<Policy>(
            m, script, specs, 3, /*block_rng_seed=*/0, st, mon);
        const LatticeOut batch =
            run_lattice<Policy>(m, script, specs, 3, seed + 1, st, mon);
        SCOPED_TRACE(std::string(what) + " Q=" + std::to_string(specs.size()) +
                     " seed " + std::to_string(seed) +
                     (with_shedder ? " shed" : ""));
        ASSERT_GT(scalar.fires.size(), 0u);
        EXPECT_EQ(batch.fires, scalar.fires);
        EXPECT_EQ(batch.per_query, scalar.per_query);
        EXPECT_EQ(batch.diag, scalar.diag);
        EXPECT_EQ(batch.shed_by_query, scalar.shed_by_query);
        EXPECT_EQ(batch.shed_by_key, scalar.shed_by_key);
        if (with_shedder) EXPECT_GT(scalar.diag.shed, 0u);
      }
    }
  }
}

TEST(BatchDifferential, LatticeMonoidPolicyMatchesScalar) {
  check_lattice<swa::LatticeMonoidPolicy<long long, long long, int>>(
      swa::sum_monoid<long long>(), "lattice sum<i64>");
  check_lattice<swa::LatticeMonoidPolicy<double, double, int>>(
      swa::sum_monoid<double>(), "lattice sum<f64>");
}

TEST(BatchDifferential, LatticeColumnarPathMatchesScalar) {
  check_lattice<swa::MonoidPolicy<long long, long long, int>>(
      swa::sum_monoid<long long>(), "two-stacks lattice sum<i64>");
  check_lattice<swa::MonoidPolicy<double, double, int>>(
      swa::sum_monoid<double>(), "two-stacks lattice sum<f64>");
}

TEST(BatchKernels, FoldRunMatchesScalarFoldBitForBit) {
  // Kernel-level oracle check across the chunk boundary (255/256/257/513)
  // and the fresh-cell seeding rule, including -0.0 (where seeding from
  // combine(identity, lift) instead of lift would flip a bit).
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> val(-10.0, 10.0);
  for (const std::size_t n : {1u, 2u, 255u, 256u, 257u, 513u}) {
    std::vector<Tuple<double>> ts;
    for (std::size_t i = 0; i < n; ++i) {
      double v = val(rng);
      if (i % 37 == 0) v = -0.0;
      ts.push_back({static_cast<Timestamp>(i), i, v});
    }
    for (const MonoidKind kind :
         {MonoidKind::kSum, MonoidKind::kMin, MonoidKind::kMax}) {
      for (const bool fresh : {true, false}) {
        double scalar_acc = -0.0;
        std::uint64_t scalar_count = fresh ? 0 : 1;
        std::uint64_t scalar_stamp = 7;
        for (const auto& t : ts) {
          const double lifted = t.value;
          if (scalar_count == 0) {
            scalar_acc = lifted;
          } else if (kind == MonoidKind::kSum) {
            scalar_acc = scalar_acc + lifted;
          } else if (kind == MonoidKind::kMin) {
            scalar_acc = std::min(scalar_acc, lifted);
          } else {
            scalar_acc = std::max(scalar_acc, lifted);
          }
          ++scalar_count;
          scalar_stamp = std::max(scalar_stamp, t.stamp);
        }
        double acc = -0.0;
        std::uint64_t stamp = 7;
        const bool used = swa::batch_fold_run(kind, ts.data(), ts.size(),
                                              fresh, acc, stamp);
        if (!swa::kBatchKernelsCompiled) {
          EXPECT_FALSE(used);
          continue;
        }
        ASSERT_TRUE(used);
        EXPECT_EQ(bits_of(acc), bits_of(scalar_acc))
            << "kind " << static_cast<int>(kind) << " n " << n << " fresh "
            << fresh;
        EXPECT_EQ(stamp, scalar_stamp);
      }
    }
    // count: lift == 1, combine == +.
    std::uint64_t cacc = 3;
    std::uint64_t cstamp = 0;
    if (swa::kBatchKernelsCompiled) {
      ASSERT_TRUE(swa::batch_fold_run(MonoidKind::kCount, ts.data(),
                                      ts.size(), /*fresh=*/false, cacc,
                                      cstamp));
      EXPECT_EQ(cacc, 3 + ts.size());
      EXPECT_EQ(cstamp, ts.size() - 1);
    }
  }
}

// --- Kernel legality traits (the satellite assertions) ----------------

// The batched absorb exists exactly on the monoid FIFO family; replay
// (holistic, order-sensitive materialization) and the finger tree (its
// absorb rebalances a tree per tuple) stay scalar by construction.
static_assert(swa::MonoidWindowMachine<int, long long, int>::kHasBatchAbsorb,
              "two-stacks must take the batched ingest path");
static_assert(swa::DabaWindowMachine<int, long long, int>::kHasBatchAbsorb,
              "DABA must take the batched ingest path");
static_assert(!swa::SlicedWindowMachine<int, int>::kHasBatchAbsorb,
              "replay (holistic) must stay on the scalar path");
static_assert(
    !swa::FingerTreeWindowMachine<int, long long, int>::kHasBatchAbsorb,
    "the out-of-order tree must stay on the scalar path");

TEST(BatchKernels, StockMonoidsCarryKindAndCommutativityTags) {
  EXPECT_EQ(swa::sum_monoid<long long>().kind, MonoidKind::kSum);
  EXPECT_EQ(swa::min_monoid<int>(100).kind, MonoidKind::kMin);
  EXPECT_EQ(swa::max_monoid<int>(-100).kind, MonoidKind::kMax);
  EXPECT_EQ(swa::count_monoid<int>().kind, MonoidKind::kCount);
  EXPECT_TRUE(swa::sum_monoid<double>().commutative);
  EXPECT_TRUE(swa::min_monoid<double>(1e9).commutative);
  EXPECT_TRUE(swa::max_monoid<double>(-1e9).commutative);
  EXPECT_TRUE(swa::count_monoid<double>().commutative);
  // A plain declaration promises nothing: no kernel, no reorder license.
  const Monoid<int, int> plain{
      0, [](const int& v) { return v; },
      [](const int& a, const int& b) { return a + b; }};
  EXPECT_EQ(plain.kind, MonoidKind::kGeneric);
  EXPECT_FALSE(plain.commutative);
}

TEST(BatchKernels, NonArithmeticPayloadsAreIneligible) {
  EXPECT_FALSE((swa::kBatchKernelEligible<bool, int>));
  EXPECT_FALSE((swa::kBatchKernelEligible<int, bool>));
  EXPECT_TRUE((swa::kBatchKernelEligible<int, long long>));
  EXPECT_TRUE((swa::kBatchKernelEligible<double, double>));
}

}  // namespace
}  // namespace aggspes
