// Multi-query pane sharing (DESIGN.md § 14): SharedLattice is the pane
// engine (pane_engine.hpp) over Q window specs with differing (WS, WA, L),
// and this header holds its monoid policy. The fire semantics of each
// registered query are bit-identical to a dedicated single-query flow over
// the same stream; the multi_query_fuzz differential suite pins that on
// every window backend, the buffering WindowMachine included, so the
// Q-query case is checked against an oracle that shares none of the
// engine's code.
//
// Evaluation policies: ReplayPolicy works unchanged (its evaluate takes
// the spec per call), giving the arbitrary-f_O fallback. For monoid f_O,
// LatticeMonoidPolicy (below) keeps one AggTreap per key over *all* live
// panes and answers any query's fold as an O(log P) range query
// (AggTreap::range_fold_or) — one tree serves every registered spec, and
// out-of-order absorbs are targeted node refreshes, never cross-key
// invalidation. The FIFO monoid policies slide one window per key, so
// under several specs they would rebuild a key's cache on every switch
// between queries.
#pragma once

#include <cstdint>

#include "core/swa/finger_tree.hpp"
#include "core/swa/pane.hpp"
#include "core/swa/pane_engine.hpp"
#include "core/swa/policy_base.hpp"
#include "core/swa/sliced_machine.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes::swa {

/// Monoid evaluation for the shared lattice: one AggTreap per key over
/// every live pane, shared by all registered queries. Any query's
/// [l, l + WS_q) fold is an O(log P) range query; an out-of-order absorb
/// refreshes exactly one node (no versioning, no cross-key invalidation —
/// the FingerTreePolicy property, now multi-query). The trees are caches:
/// rebuilt lazily from the authoritative pane cells after restore or LRU
/// eviction, kept exact by upserts on absorb and erases on pane purge.
template <typename In, typename Agg, typename Key>
class LatticeMonoidPolicy : public MonoidPolicyCore<In, Agg, Key> {
  using Base = MonoidPolicyCore<In, Agg, Key>;

 public:
  using Cell = typename Base::Cell;
  using Result = typename Base::Result;

  explicit LatticeMonoidPolicy(Monoid<In, Agg> m,
                               std::size_t max_cached_keys = 0)
      : Base(std::move(m)) {
    cache_.set_max(max_cached_keys);
  }

  void absorb(const Key& key, Cell& c, Timestamp pane_l, const Tuple<In>& t,
              std::uint64_t /*seq*/) {
    this->fold_into(c, t);
    KeyTree* kt = cache_.find(key);
    if (kt != nullptr && kt->built) {
      // New or mutated pane: refresh its node from the authoritative cell
      // so the tree stays exact over all live panes. O(log P), whether the
      // arrival was in-order or late.
      kt->tree.upsert(pane_l, Result{c.agg, c.count, c.stamp},
                      this->combiner());
    }
  }

  template <typename PaneMap>
  const Result& evaluate(const PaneMap& panes, const WindowSpec& spec,
                         const PaneGeometry&, Timestamp l, const Key& key,
                         bool /*sequential*/) {
    KeyTree& kt = cache_.touch(key);
    if (!kt.built) {
      kt.tree.clear();
      for (const auto& [p, cells] : panes) {
        auto cell = cells.find(key);
        if (cell == cells.end()) continue;
        kt.tree.upsert(p,
                       Result{cell->second.agg, cell->second.count,
                              cell->second.stamp},
                       this->combiner());
      }
      kt.built = true;
      ++rebuilds_;
    }
    this->result_ = kt.tree.range_fold_or(l, l + spec.size,
                                          this->identity_result(),
                                          this->combiner());
    return this->result_;
  }

  /// Lattice purge hook: drop the dead pane's node from every cached key
  /// tree it appears in.
  template <typename Cells>
  void on_pane_purged(Timestamp p, const Cells& cells) {
    for (const auto& [key, cell] : cells) {
      KeyTree* kt = cache_.find(key);
      if (kt != nullptr && kt->built) kt->tree.erase(p, this->combiner());
    }
  }

  void reset() { cache_.clear(); }

  /// Bounded per-key cache memory (0 = unbounded); evictions drop trees
  /// only, never pane state.
  void set_max_cached_keys(std::size_t n) { cache_.set_max(n); }
  std::size_t max_cached_keys() const { return cache_.max(); }
  std::size_t cached_keys() const { return cache_.size(); }
  std::uint64_t cache_evictions() const { return cache_.evictions(); }
  std::uint64_t peak_cached_keys() const { return cache_.peak_size(); }
  /// Full per-key tree builds since the last reset (first fire after
  /// construction, restore, or eviction).
  std::uint64_t rebuilds() const { return rebuilds_; }
  void reset_diagnostics() {
    cache_.reset_diagnostics();
    rebuilds_ = 0;
  }

 private:
  struct KeyTree {
    AggTreap<Result> tree;  ///< one node per live pane holding this key
    bool built{false};
  };

  KeyCacheLru<Key, KeyTree> cache_;
  std::uint64_t rebuilds_{0};
};

/// The two lattice configurations MultiQueryOp deploys: replay for
/// arbitrary f_O, monoid range-folds where f_O is ⟨lift, combine, id⟩.
template <typename In, typename Key>
using ReplayLattice = SharedLattice<In, Key, ReplayPolicy<In>>;
template <typename In, typename Agg, typename Key>
using MonoidLattice = SharedLattice<In, Key, LatticeMonoidPolicy<In, Agg, Key>>;

}  // namespace aggspes::swa
