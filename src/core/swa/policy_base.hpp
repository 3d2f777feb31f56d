// Shared core of the monoid-family evaluation policies (DESIGN.md § 9,
// § 11). Every incremental policy — MonoidPolicy (two-stacks), DabaPolicy
// (worst-case-constant DABA Lite) and FingerTreePolicy (out-of-order-
// robust aggregation tree) — stores the same authoritative per-(pane, key)
// Cell and differs only in the per-key cache answering sequential fires.
// This header owns everything the caches have in common:
//
//   * MonoidPolicyCore — the Cell format, the tuple→cell fold, the
//     WindowAggregate combiner, pane lookups and the direct range fold
//     used by non-sequential (late re-fire / eager) evaluation, and the
//     cell snapshot codec. Caches are never serialized; correctness never
//     depends on them.
//   * KeyCacheLru — bounded per-key cache bookkeeping: an optional LRU
//     over the policy's per-key structures (set_max_cached_keys), so high
//     key cardinality cannot grow cache memory without bound. Evicting a
//     key only drops its cache — the next fire rebuilds it from the pane
//     cells — so the knob trades CPU for memory, never correctness.
//   * FifoMonoidPolicy — the full sliding-FIFO policy, generic over the
//     FIFO aggregator (TwoStacks or DabaLite): per-key [from, to) pane
//     ranges slid by evict/push, with the PR-2 out-of-order rule (a
//     mutation under any built cache bumps a global version; caches
//     lazily rebuild).
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "core/recovery/snapshot.hpp"
#include "core/swa/batch_kernels.hpp"
#include "core/swa/monoid.hpp"
#include "core/swa/pane.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes::swa {

template <typename In, typename Agg, typename Key>
class MonoidPolicyCore {
 public:
  /// Per-(pane, key) partial: fold of the pane's lifted tuples in arrival
  /// order, plus count/stamp metadata carried through combines.
  struct Cell {
    Agg agg{};
    std::uint64_t count{0};
    std::uint64_t stamp{0};
  };
  using Result = WindowAggregate<Agg>;

  explicit MonoidPolicyCore(Monoid<In, Agg> m) : m_(std::move(m)) {}

  /// Tuples folded into a cell — its contribution to the engine's
  /// occupancy diagnostics (the partial itself is O(1) regardless).
  static std::size_t cell_count(const Cell& c) { return c.count; }

  void save_cell(SnapshotWriter& w, const Cell& c) const {
    write_value(w, c.agg);
    w.write_u64(c.count);
    w.write_u64(c.stamp);
  }

  Cell load_cell(SnapshotReader& r) const {
    Cell c;
    c.agg = read_value<Agg>(r);
    c.count = r.read_u64();
    c.stamp = r.read_u64();
    return c;
  }

  const Monoid<In, Agg>& monoid() const { return m_; }

  /// Cache-free fold of [l, l+size)'s pane partials for one key — the
  /// read path a frozen epoch exposes (async snapshot serialization,
  /// StateQuery point/range reads). Const and touches no policy cache, so
  /// it is safe to run from a snapshot/query thread against a frozen pane
  /// map while the live policy keeps evaluating.
  template <typename PaneMap>
  Result fold_window(const PaneMap& panes, Timestamp l, Timestamp end,
                     const Key& key) const {
    return fold_range(panes, l, end, key);
  }

 protected:
  void fold_into(Cell& c, const Tuple<In>& t) {
    Agg lifted = m_.lift(t.value);
    c.agg = c.count == 0 ? std::move(lifted) : m_.combine(c.agg, lifted);
    ++c.count;
    c.stamp = std::max(c.stamp, t.stamp);
  }

  /// Folds a contiguous tuple run into one cell. Monoids tagged with an
  /// arithmetic kind go through the columnar kernel (bit-identical to the
  /// sequential scalar fold — see batch_kernels.hpp); everything else, and
  /// builds with AGGSPES_BATCH=0, falls back to per-tuple fold_into.
  void fold_run_into(Cell& c, const Tuple<In>* ts, std::size_t n) {
    if (n == 0) return;
    if (m_.kind != MonoidKind::kGeneric &&
        batch_fold_run(m_.kind, ts, n, c.count == 0, c.agg, c.stamp)) {
      c.count += n;
      return;
    }
    for (std::size_t i = 0; i < n; ++i) fold_into(c, ts[i]);
  }

  /// Combines WindowAggregates; a precedes b in event-time order.
  struct Comb {
    const Monoid<In, Agg>* m;
    Result operator()(const Result& a, const Result& b) const {
      if (a.count == 0) return b;
      if (b.count == 0) return a;
      return {m->combine(a.agg, b.agg), a.count + b.count,
              std::max(a.stamp, b.stamp)};
    }
  };
  Comb combiner() const { return Comb{&m_}; }

  Result identity_result() const { return {m_.identity, 0, 0}; }

  template <typename PaneMap>
  Result pane_partial(const PaneMap& panes, Timestamp pane_l,
                      const Key& key) const {
    auto it = panes.find(pane_l);
    if (it == panes.end()) return identity_result();
    auto cell = it->second.find(key);
    if (cell == it->second.end()) return identity_result();
    return {cell->second.agg, cell->second.count, cell->second.stamp};
  }

  template <typename PaneMap>
  Result fold_range(const PaneMap& panes, Timestamp l, Timestamp end,
                    const Key& key) const {
    Result acc = identity_result();
    const Comb comb = combiner();
    for (auto it = panes.lower_bound(l); it != panes.end() && it->first < end;
         ++it) {
      auto cell = it->second.find(key);
      if (cell == it->second.end()) continue;
      acc = comb(acc, Result{cell->second.agg, cell->second.count,
                             cell->second.stamp});
    }
    return acc;
  }

  Monoid<In, Agg> m_;
  Result result_{};
};

/// Bounded per-key cache bookkeeping shared by the incremental policies:
/// a find-or-insert map of per-key states plus an optional LRU bound.
/// max == 0 means unbounded (the default — identical to the PR-2
/// behaviour); with a bound, touching a key moves it to the front and
/// inserting past the bound evicts the least-recently-fired key's cache.
template <typename Key, typename State>
class KeyCacheLru {
 public:
  struct Entry {
    State state;
    typename std::list<Key>::iterator lru;
  };

  void set_max(std::size_t n) { max_ = n; }
  std::size_t max() const { return max_; }
  std::size_t size() const { return map_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t peak_size() const { return peak_size_; }
  void reset_diagnostics() {
    evictions_ = 0;
    peak_size_ = map_.size();
  }

  /// Find-or-insert `key`, refreshing its recency. May evict another
  /// key's state (never the one just touched).
  State& touch(const Key& key) {
    auto [it, inserted] = map_.try_emplace(key);
    if (inserted) {
      order_.push_front(key);
      it->second.lru = order_.begin();
      if (map_.size() > peak_size_) peak_size_ = map_.size();
      if (max_ > 0 && map_.size() > max_) {
        map_.erase(order_.back());
        order_.pop_back();
        ++evictions_;
      }
    } else if (it->second.lru != order_.begin()) {
      order_.splice(order_.begin(), order_, it->second.lru);
    }
    return it->second.state;
  }

  State* find(const Key& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.state;
  }

  void clear() {
    map_.clear();
    order_.clear();
  }

 private:
  std::unordered_map<Key, Entry> map_;
  std::list<Key> order_;  ///< most-recently-touched first
  std::size_t max_{0};    ///< 0 = unbounded
  std::uint64_t evictions_{0};
  std::uint64_t peak_size_{0};
};

/// The sliding-FIFO incremental policy, generic over the FIFO aggregator:
/// Fifo = TwoStacks gives MonoidPolicy (amortized O(1), the PR-2
/// behaviour), Fifo = DabaLite gives DabaPolicy (worst-case O(1) — no
/// flip spike at window boundaries). Out-of-order arrivals under any
/// built cache bump a global version and every key's FIFO rebuilds lazily
/// from the (always current) pane partials on next use.
template <typename In, typename Agg, typename Key, typename Fifo>
class FifoMonoidPolicy : public MonoidPolicyCore<In, Agg, Key> {
  using Base = MonoidPolicyCore<In, Agg, Key>;

 public:
  using Cell = typename Base::Cell;
  using Result = typename Base::Result;

  explicit FifoMonoidPolicy(Monoid<In, Agg> m, std::size_t max_cached_keys = 0)
      : Base(std::move(m)) {
    cache_.set_max(max_cached_keys);
  }

  void absorb(const Key& /*key*/, Cell& c, Timestamp pane_l,
              const Tuple<In>& t, std::uint64_t /*seq*/) {
    this->fold_into(c, t);
    if (pane_l < frontier_) ++version_;  // pane inside built caches mutated
  }

  /// Batched absorb: folds a whole same-key, same-pane tuple run into one
  /// cell with a single version-bump check. Only the monoid-family FIFO
  /// policies expose this — ReplayPolicy (and holistic folds generally)
  /// deliberately has no absorb_run, so the pane engine's add_block
  /// detects its absence and keeps those on the scalar path (DESIGN.md
  /// § 11/§ 16).
  void absorb_run(const Key& /*key*/, Cell& c, Timestamp pane_l,
                  const Tuple<In>* ts, std::size_t n, std::uint64_t /*seq0*/) {
    this->fold_run_into(c, ts, n);
    if (pane_l < frontier_) ++version_;
  }

  template <typename PaneMap>
  const Result& evaluate(const PaneMap& panes, const WindowSpec& spec,
                         const PaneGeometry& geom, Timestamp l,
                         const Key& key, bool sequential) {
    const Timestamp end = l + spec.size;
    if (!sequential) {
      // Late re-fires and eager hooks: fold the pane range directly; no
      // cache to keep coherent.
      this->result_ = this->fold_range(panes, l, end, key);
      return this->result_;
    }
    KeyFifo& ks = cache_.touch(key);
    if (ks.version != version_ || ks.from > l || ks.to > end ||
        ks.to < ks.from) {
      ks.fifo.clear();
      ks.from = ks.to = l;
      ks.version = version_;
    }
    while (ks.from < l) {
      if (ks.fifo.empty()) {
        ks.from = ks.to = l;
        break;
      }
      ks.fifo.evict(this->combiner());
      ks.from += geom.width;
    }
    while (ks.to < end) {
      ks.fifo.push(this->pane_partial(panes, ks.to, key), this->combiner());
      ks.to += geom.width;
    }
    if (ks.to > frontier_) frontier_ = ks.to;
    this->result_ = ks.fifo.query_or(this->identity_result(), this->combiner());
    return this->result_;
  }

  void reset() {
    cache_.clear();
    ++version_;
    frontier_ = kMinTimestamp;
  }

  /// Bounded per-key cache memory: at most n keys keep a live FIFO
  /// (0 = unbounded). Evictions drop caches only, never window state.
  void set_max_cached_keys(std::size_t n) { cache_.set_max(n); }
  std::size_t max_cached_keys() const { return cache_.max(); }
  std::size_t cached_keys() const { return cache_.size(); }
  std::uint64_t cache_evictions() const { return cache_.evictions(); }
  std::uint64_t peak_cached_keys() const { return cache_.peak_size(); }
  void reset_diagnostics() { cache_.reset_diagnostics(); }

 private:
  /// Per-key sliding cache: one FIFO entry per pane in [from, to).
  struct KeyFifo {
    Fifo fifo;
    Timestamp from{0};
    Timestamp to{0};
    std::uint64_t version{~std::uint64_t{0}};  // mismatch → rebuild on use
  };

  KeyCacheLru<Key, KeyFifo> cache_;
  Timestamp frontier_{kMinTimestamp};  ///< max pane boundary inside any cache
  std::uint64_t version_{0};
};

}  // namespace aggspes::swa
