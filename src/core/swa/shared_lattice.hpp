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
// (AggTreap::range_fold_or) — one tree serves every registered spec. Its
// cost model: O(1) per absorbed tuple (a cell fold plus a stale mark; a
// same-pane run through add_block is one absorb_run), and one O(log P)
// node refresh per (pane, key) at that key's next evaluate, whether the
// arrivals were in order or late — never cross-key invalidation. A node's
// value is only refreshed later than an eager per-tuple upsert would
// have, so the tree, and every fold it answers, is bit-identical. The FIFO
// monoid policies slide one window per key, so under several specs they
// would rebuild a key's cache on every switch between queries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

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
/// [l, l + WS) fold is an O(log P) range query. Absorbs are O(1): a tuple
/// (or a same-pane run) folds into its authoritative cell and, when the
/// key's tree is built, records the pane as stale in that tree; the next
/// evaluate for the key refreshes each stale node from its cell — one
/// O(log P) update per (pane, key) between fires instead of one per tuple
/// (no versioning, no cross-key invalidation). The trees are caches:
/// rebuilt lazily from the pane cells after restore or LRU eviction, and
/// purged panes drop their nodes.
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
    mark_stale(key, pane_l);
  }

  /// Batched absorb of a same-key, same-pane run: one cell fold (the
  /// columnar kernel for tagged monoids) and one stale mark.
  void absorb_run(const Key& key, Cell& c, Timestamp pane_l,
                  const Tuple<In>* ts, std::size_t n, std::uint64_t /*seq0*/) {
    this->fold_run_into(c, ts, n);
    mark_stale(key, pane_l);
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
        kt.tree.upsert(p, result_of(cell->second), this->combiner());
      }
      kt.built = true;
      ++rebuilds_;
    } else {
      // Refresh the nodes of the panes absorbed into since the last
      // evaluate (inserting those new to the tree). A pane purged
      // meanwhile already lost its node (on_pane_purged) and must not be
      // re-inserted.
      for (Timestamp p : kt.stale) {
        auto pane = panes.find(p);
        if (pane == panes.end()) continue;
        auto cell = pane->second.find(key);
        if (cell == pane->second.end()) continue;
        kt.tree.upsert(p, result_of(cell->second), this->combiner());
      }
    }
    kt.clear_stale();
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
  static constexpr std::size_t kMinCompact = 16;

  struct KeyTree {
    AggTreap<Result> tree;  ///< one node per live pane holding this key
    bool built{false};
    /// Panes absorbed into since the last evaluate, whose nodes may lag
    /// their cells. Consecutive repeats collapse on insert; the rest are
    /// deduplicated whenever the list doubles, so disorder cannot grow it
    /// past twice the distinct panes.
    std::vector<Timestamp> stale;
    std::size_t compact_at{kMinCompact};

    void clear_stale() {
      stale.clear();
      compact_at = kMinCompact;
    }
  };

  static Result result_of(const Cell& c) { return {c.agg, c.count, c.stamp}; }

  /// Records that (pane_l, key)'s cell changed: its node in the key's
  /// built tree, if any, lags until the next evaluate. Without a built
  /// tree there is nothing to mark, since the rebuild reads the cells.
  void mark_stale(const Key& key, Timestamp pane_l) {
    KeyTree* kt = cache_.find(key);
    if (kt == nullptr || !kt->built) return;
    std::vector<Timestamp>& stale = kt->stale;
    if (!stale.empty() && stale.back() == pane_l) return;
    stale.push_back(pane_l);
    if (stale.size() >= kt->compact_at) {
      std::sort(stale.begin(), stale.end());
      stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
      kt->compact_at = std::max(kMinCompact, 2 * stale.size());
    }
  }

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
