// The shared lattice's deferred tree refresh (DESIGN.md § 14): an absorb
// only folds its cell and marks the (pane, key) stale; the key's next
// evaluate refreshes the stale nodes. These cases pin the edges of that
// rule — a stale pane purged before its key fires, a freeze taken while
// nodes lag their cells, disorder that repeats panes in the stale list —
// and hold the whole lattice bit-identical to an eager per-tuple-upsert
// oracle under an order-sensitive, non-associative fold, where any change
// to the fold order or to the tree's node set shows up as a different
// value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/swa/finger_tree.hpp"
#include "core/swa/shared_lattice.hpp"

namespace aggspes {
namespace {

using swa::Monoid;
using SumPolicy = swa::LatticeMonoidPolicy<long long, long long, int>;
using SumCell = SumPolicy::Cell;
/// A plain pane map: the policy reads panes through the map surface only.
using Panes = std::map<Timestamp, std::unordered_map<int, SumCell>>;

void absorb(SumPolicy& pol, Panes& panes, Timestamp pane, int key,
            long long v, std::uint64_t stamp) {
  pol.absorb(key, panes[pane][key], pane, Tuple<long long>{pane, stamp, v},
             0);
}

TEST(LatticeRefresh, PanePurgedWhileStaleIsNotReinserted) {
  SumPolicy pol(swa::sum_monoid<long long>());
  Panes panes;
  const swa::PaneGeometry geom{2};
  const WindowSpec wide{.advance = 2, .size = 6};
  const WindowSpec one_pane{.advance = 2, .size = 2};
  absorb(pol, panes, 0, 7, 5, 1);
  absorb(pol, panes, 2, 7, 10, 2);
  EXPECT_EQ(pol.evaluate(panes, wide, geom, 0, 7, true).agg, 15);
  ASSERT_EQ(pol.rebuilds(), 1u);

  // Key 7 absorbs into pane 0 (stale in its built tree) and into a new
  // pane 4; pane 0 is then purged before key 7 evaluates again.
  absorb(pol, panes, 0, 7, 100, 3);
  absorb(pol, panes, 4, 7, 1, 4);
  pol.on_pane_purged(0, panes.at(0));
  panes.erase(0);

  const auto r = pol.evaluate(panes, wide, geom, 0, 7, true);
  EXPECT_EQ(r.agg, 11);
  EXPECT_EQ(r.count, 2u);
  EXPECT_EQ(r.stamp, 4u);
  // No node for the dead pane came back, and the tree was refreshed in
  // place rather than rebuilt.
  EXPECT_EQ(pol.evaluate(panes, one_pane, geom, 0, 7, true).count, 0u);
  EXPECT_EQ(pol.evaluate(panes, one_pane, geom, 4, 7, true).agg, 1);
  EXPECT_EQ(pol.rebuilds(), 1u);
}

TEST(LatticeRefresh, AlternatingPanesBetweenFiresStayExact) {
  // Disorder that alternates a key between two panes defeats the
  // consecutive-repeat check, so the stale list is compacted many times
  // between two evaluates; pane 4, absorbed into once before that, must
  // survive every compaction.
  SumPolicy pol(swa::sum_monoid<long long>());
  Panes panes;
  const swa::PaneGeometry geom{2};
  const WindowSpec spec{.advance = 2, .size = 6};
  absorb(pol, panes, 0, 1, 1, 0);
  pol.evaluate(panes, spec, geom, 0, 1, true);
  long long expect = 1;
  std::uint64_t count = 1;
  std::uint64_t stamp = 0;
  for (int round = 0; round < 3; ++round) {
    absorb(pol, panes, 4, 1, 1000, ++stamp);
    expect += 1000;
    ++count;
    for (int i = 1; i <= 1000; ++i) {
      absorb(pol, panes, (i % 2) * 2, 1, i, ++stamp);
      expect += i;
      ++count;
    }
    const auto r = pol.evaluate(panes, spec, geom, 0, 1, true);
    EXPECT_EQ(r.agg, expect) << "round " << round;
    EXPECT_EQ(r.count, count);
    EXPECT_EQ(r.stamp, stamp);
  }
  EXPECT_EQ(pol.rebuilds(), 1u);
}

using SumLattice = swa::MonoidLattice<long long, long long, int>;

TEST(LatticeRefresh, FreezeWithStalePanesFoldsLikeLiveEvaluate) {
  const std::vector<WindowSpec> specs = {
      {.advance = 2, .size = 8, .lateness = 4},
      {.advance = 4, .size = 12, .lateness = 0},
      {.advance = 6, .size = 6, .lateness = 0},
  };
  SumLattice lat(
      specs, [](const long long& v) { return static_cast<int>(v % 5); },
      SumPolicy(swa::sum_monoid<long long>()));
  std::vector<std::tuple<int, Timestamp, int, swa::WindowAggregate<long long>>>
      fires;
  auto fire = [&](int q, Timestamp l, const int& key,
                  const swa::WindowAggregate<long long>& r, bool) {
    fires.emplace_back(q, l, key, r);
  };
  std::uint64_t stamp = 0;
  auto feed = [&](Timestamp from, Timestamp to, Timestamp w) {
    for (Timestamp ts = from; ts < to; ++ts) {
      for (long long v : {ts * 7 + 1, ts * 3 + 2, ts + 4}) {
        lat.add(Tuple<long long>{ts, ++stamp, v}, w, fire);
      }
    }
  };
  // Fire (and so build every key's tree) up to 30, then absorb into panes
  // those trees already hold, plus new ones, without firing.
  feed(0, 40, kMinTimestamp);
  lat.advance(30, fire);
  ASSERT_FALSE(fires.empty());
  feed(30, 48, 30);
  // A late tuple under query 0's lateness re-fires; the rest stay stale.
  lat.add(Tuple<long long>{27, ++stamp, 11}, 30, fire);

  fires.clear();
  const auto frozen = lat.freeze();
  lat.advance(60, fire);
  ASSERT_FALSE(fires.empty());
  for (const auto& [q, l, key, r] : fires) {
    const auto f = frozen.fold(q, l, key);
    EXPECT_EQ(f.agg, r.agg) << "query " << q << " l " << l << " key " << key;
    EXPECT_EQ(f.count, r.count);
    EXPECT_EQ(f.stamp, r.stamp);
  }
  SumLattice::release_frozen(frozen);
}

// --- Bit-identity against the eager oracle ------------------------------

/// The lattice monoid policy as it was before the refresh was deferred:
/// every absorb upserts its node into the key's tree at once. No LRU bound
/// (a bound changes when trees are rebuilt, never what they hold).
template <typename In, typename Agg, typename Key>
class EagerLatticePolicy : public swa::MonoidPolicyCore<In, Agg, Key> {
  using Base = swa::MonoidPolicyCore<In, Agg, Key>;

 public:
  using Cell = typename Base::Cell;
  using Result = typename Base::Result;

  explicit EagerLatticePolicy(Monoid<In, Agg> m) : Base(std::move(m)) {}

  void absorb(const Key& key, Cell& c, Timestamp pane_l, const Tuple<In>& t,
              std::uint64_t /*seq*/) {
    this->fold_into(c, t);
    auto it = trees_.find(key);
    if (it != trees_.end()) {
      it->second.upsert(pane_l, Result{c.agg, c.count, c.stamp},
                        this->combiner());
    }
  }

  template <typename PaneMap>
  const Result& evaluate(const PaneMap& panes, const WindowSpec& spec,
                         const swa::PaneGeometry&, Timestamp l,
                         const Key& key, bool /*sequential*/) {
    auto [it, inserted] = trees_.try_emplace(key);
    if (inserted) {
      for (const auto& [p, cells] : panes) {
        auto cell = cells.find(key);
        if (cell == cells.end()) continue;
        it->second.upsert(p,
                          Result{cell->second.agg, cell->second.count,
                                 cell->second.stamp},
                          this->combiner());
      }
    }
    this->result_ = it->second.range_fold_or(
        l, l + spec.size, this->identity_result(), this->combiner());
    return this->result_;
  }

  template <typename Cells>
  void on_pane_purged(Timestamp p, const Cells& cells) {
    for (const auto& [key, cell] : cells) {
      auto it = trees_.find(key);
      if (it != trees_.end()) it->second.erase(p, this->combiner());
    }
  }

  void reset() { trees_.clear(); }

 private:
  std::unordered_map<Key, swa::AggTreap<Result>> trees_;
};

/// (query, instance, key, agg, count, stamp, is_update).
using FireRec = std::tuple<int, Timestamp, int, long long, std::uint64_t,
                           std::uint64_t, bool>;

/// A tuple arrival or (is_wm) a watermark advance.
struct Ev {
  bool is_wm{false};
  Tuple<int> t{};
  Timestamp w{kMinTimestamp};
};

/// Locally shuffled tuples under trailing watermarks: some arrive late
/// but admitted (re-fires), some past every query's lateness (drops).
std::vector<Ev> ooo_script(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 2);
  std::uniform_int_distribution<int> val(-40, 40);
  std::vector<Tuple<int>> tuples;
  Timestamp ts = -30;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    tuples.push_back({ts, static_cast<std::uint64_t>(rng() % 1000), val(rng)});
  }
  std::uniform_int_distribution<std::size_t> k(0, 10);
  for (std::size_t i = 0; i + 1 < tuples.size(); ++i) {
    std::uniform_int_distribution<std::size_t> d(
        i, std::min(tuples.size() - 1, i + k(rng)));
    std::swap(tuples[i], tuples[d(rng)]);
  }
  std::uniform_int_distribution<Timestamp> slack(0, 5);
  std::vector<Ev> script;
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
  script.push_back({true, {}, max_ts + 60});
  return script;
}

/// Runs `script` through a lattice over `specs`: per tuple with add(), or
/// with `block_seed != 0` as random-sized add_block runs between
/// watermarks. Fires come back sorted by (query, instance, key), each
/// (instance, key)'s re-fire sequence kept in order.
template <typename Policy>
std::vector<FireRec> run(Policy policy, const std::vector<Ev>& script,
                         const std::vector<WindowSpec>& specs,
                         unsigned block_seed) {
  swa::SharedLattice<int, int, Policy> lat(
      specs, [](const int& v) { return v % 3; }, std::move(policy));
  std::vector<FireRec> fires;
  auto fire = [&](int q, Timestamp l, const int& key,
                  const swa::WindowAggregate<long long>& r, bool update) {
    fires.emplace_back(q, l, key, r.agg, r.count, r.stamp, update);
  };
  std::mt19937 brng(block_seed);
  std::uniform_int_distribution<std::size_t> bsz(1, 40);
  std::vector<Tuple<int>> pending;
  Timestamp w = kMinTimestamp;
  auto drain = [&] {
    for (std::size_t i = 0; i < pending.size();) {
      const std::size_t n = std::min(bsz(brng), pending.size() - i);
      lat.add_block(pending.data() + i, n, w, fire);
      i += n;
    }
    pending.clear();
  };
  for (const Ev& ev : script) {
    if (ev.is_wm) {
      drain();
      lat.advance(ev.w, fire);
      w = ev.w;
    } else if (block_seed == 0) {
      lat.add(ev.t, w, fire);
    } else {
      pending.push_back(ev.t);
    }
  }
  drain();
  lat.flush(fire);
  std::stable_sort(fires.begin(), fires.end(),
                   [](const FireRec& a, const FireRec& b) {
                     return std::tie(std::get<0>(a), std::get<1>(a),
                                     std::get<2>(a)) <
                            std::tie(std::get<0>(b), std::get<1>(b),
                                     std::get<2>(b));
                   });
  return fires;
}

TEST(LatticeRefresh, NonAssociativeFoldMatchesEagerUpsertBitForBit) {
  // An untagged, order-sensitive fold that is not even associative: the
  // value of every fire depends on the arrival order inside each cell and
  // on the exact tree over the key's panes, so deferring node refreshes
  // must leave both untouched.
  const Monoid<int, long long> m{
      0, [](const int& v) { return static_cast<long long>(v); },
      [](const long long& a, const long long& b) {
        // Wrapping arithmetic in uint64: signed overflow would be UB.
        return static_cast<long long>(static_cast<std::uint64_t>(a) * 31 +
                                      static_cast<std::uint64_t>(b));
      }};
  ASSERT_EQ(m.kind, swa::MonoidKind::kGeneric);
  const std::vector<std::vector<WindowSpec>> lattices = {
      {{.advance = 2, .size = 10, .lateness = 6}},
      {{.advance = 2, .size = 10, .lateness = 6},
       {.advance = 4, .size = 12, .lateness = 0},
       {.advance = 6, .size = 6, .lateness = 3},
       {.advance = 2, .size = 2, .lateness = 0},
       {.advance = 8, .size = 4, .lateness = 2}},
  };
  using Deferred = swa::LatticeMonoidPolicy<int, long long, int>;
  static_assert(swa::SharedLattice<int, int, Deferred>::kHasBatchAbsorb);
  for (const auto& specs : lattices) {
    for (unsigned seed : {3u, 4u, 5u}) {
      const auto script = ooo_script(seed, 900);
      const auto oracle =
          run(EagerLatticePolicy<int, long long, int>(m), script, specs, 0);
      ASSERT_GT(oracle.size(), 0u);
      for (std::size_t bound : {0u, 1u}) {
        for (unsigned block_seed : {0u, seed + 1}) {
          SCOPED_TRACE("Q=" + std::to_string(specs.size()) + " seed " +
                       std::to_string(seed) + " max_cached_keys " +
                       std::to_string(bound) +
                       (block_seed != 0 ? " add_block" : " add"));
          EXPECT_EQ(run(Deferred(m, bound), script, specs, block_seed),
                    oracle);
        }
      }
    }
  }
}

}  // namespace
}  // namespace aggspes
