// The pane engine (DESIGN.md § 9, § 14): window state for Q >= 1 window
// queries over one keyed stream, stored once in a gcd-pane lattice, with
// WindowMachine-equivalent fire semantics for every query.
//
// Where WindowMachine copies each tuple into every overlapping instance
// (an O(WS/WA) per-tuple blowup), the engine stores each tuple's
// contribution exactly once — in its pane of width
// g = gcd over all registered specs of gcd(WA_q, WS_q) — and evaluates
// query q's instance [l, l + WS_q) from the panes it spans. g divides each
// l = k·WA_q and each WS_q, so every instance of every query is an exact
// pane union (the "Factor Windows" idea of Wu et al., with a single query
// as its trivial case). The semantics of each query are bit-identical to
// WindowMachine under the operator discipline (advance(w) before any
// add(t, w) at the same watermark, which is how every Aggregate drives
// its machine):
//
//   * per-instance Dataflow admission: a late tuple is counted dropped
//     once per instance past the query's lateness horizon, and admitted
//     instances re-fire immediately as updates (§ 2.4);
//   * instances fire once per (instance, key) at the watermark that
//     completes them, in instance order, and flush() fires the rest;
//   * floor_div instance math, so negative timestamps land in the same
//     instances and panes.
//
// Per tuple, the state is shared: the pane cells, the arrival-sequence
// counter and the occupancy counters. Per query: fired flags, the fire-walk
// cursor, the lateness horizon, the sliding key-union cache, the drop and
// update counters and the late probe. Instance bookkeeping is O(1) per
// tuple: completed instances are discovered by walking each query's
// cursor over the pane index (each instance is visited once); fired flags
// are materialized only for instances that fire — and only when L_q > 0,
// the sole case a late update can consult them — and are purged with the
// query's horizon. With L_q = 0, an instance that is exactly one pane
// (g = WS_q) fires straight from that pane's cells.
//
// Sharing panes across queries has two consequences handled explicitly:
//   * Lateness is per query: a tuple dead to query A (all of A's
//     instances past A's horizon) but live to query B is stored — A never
//     sees it because A's purged instances are never evaluated again. A
//     pane is erased only when every query's last instance containing it
//     is purgeable (pane lifetime = max over queries).
//   * Shedding is a store-level decision: a tuple cannot be in the pane
//     for B but not A, so the shedder is consulted once at admission and a
//     refusal is attributed to every query whose instance set contained
//     the tuple (Shedder::attribute_query).
//
// The evaluation strategy is pluggable (Policy): ReplayPolicy
// (sliced_machine.hpp) materializes an instance's tuples from its panes in
// global arrival order — the fallback for arbitrary f_O — while the monoid
// policies keep per-pane partial aggregates and a per-key cache answering
// fires (the FIFO family of policy_base.hpp for one query,
// LatticeMonoidPolicy of shared_lattice.hpp for any number).
//
// One class template, two presentations (kMulti): the single-query engine
// takes one spec, calls FireFn/AddedFn with WindowMachine's arguments
// (l, key, result[, update]) and writes the single-query snapshot header;
// the lattice takes a spec list, prepends the query index to every
// callback and writes the lattice header. Everything else is the same code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/runtime/overload.hpp"
#include "core/swa/epoch.hpp"
#include "core/swa/late_probe.hpp"
#include "core/swa/pane.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes::swa {

/// Pane width shared by a set of window specs: the gcd of every spec's
/// advance and size, so each spec's instances are exact pane unions.
inline Timestamp shared_pane_width(const std::vector<WindowSpec>& specs) {
  Timestamp g = 0;
  for (const WindowSpec& s : specs) {
    g = std::gcd(g, std::gcd(s.advance, s.size));
  }
  return g > 0 ? g : kDelta;
}

template <typename In, typename Key, typename Policy, bool kMulti>
class PaneEngine {
 public:
  using Cell = typename Policy::Cell;
  /// What a fire delivers: materialized tuples (ReplayPolicy) or a
  /// WindowAggregate (the monoid policies).
  using Result = typename Policy::Result;
  /// fire([q,] l, key, result, is_late_update) — WindowMachine::FireFn
  /// with Result in place of the items vector; the lattice prepends the
  /// registered query's index.
  using FireFn = std::conditional_t<
      kMulti,
      std::function<void(int, Timestamp, const Key&, const Result&, bool)>,
      std::function<void(Timestamp, const Key&, const Result&, bool)>>;
  /// added([q,] l, key, result) — post-insert hook behind eager Aggregates.
  using AddedFn = std::conditional_t<
      kMulti, std::function<void(int, Timestamp, const Key&, const Result&)>,
      std::function<void(Timestamp, const Key&, const Result&)>>;
  using KeyFn = std::function<Key(const In&)>;
  /// MVCC-versioned pane store (epoch.hpp): policies read it through a
  /// std::map-of-unordered_map surface; mutation goes through mutate() so
  /// frozen epochs stay isolated.
  using PaneMap = CowPaneMap<Key, Cell>;
  using PaneIt = typename PaneMap::const_iterator;

  PaneEngine(WindowSpec spec, KeyFn key_fn, Policy policy = Policy{})
    requires(!kMulti)
      : PaneEngine(Specs{{spec}}, std::move(key_fn), std::move(policy)) {}

  PaneEngine(std::vector<WindowSpec> specs, KeyFn key_fn,
             Policy policy = Policy{})
    requires kMulti
      : PaneEngine(Specs{std::move(specs)}, std::move(key_fn),
                   std::move(policy)) {}

  int query_count() const { return static_cast<int>(queries_.size()); }
  const WindowSpec& spec(int q = 0) const { return query(q).spec; }
  const PaneGeometry& geometry() const { return geom_; }
  Policy& policy() { return policy_; }
  const Policy& policy() const { return policy_; }

  /// Whether the policy accepts batched same-pane tuple runs (absorb_run).
  /// The monoid FIFO family and the lattice's monoid policy do;
  /// ReplayPolicy — and holistic/order-sensitive folds generally —
  /// deliberately does not, so add_block degrades to per-tuple add() for
  /// them (DESIGN.md § 11/§ 16).
  static constexpr bool kHasBatchAbsorb =
      requires(Policy& p, const Key& k, Cell& c, const Tuple<In>* ts) {
        p.absorb_run(k, c, Timestamp{}, ts, std::size_t{}, std::uint64_t{});
      };

  /// Inserts `t` once (into its pane) and applies every query's
  /// per-instance admission, eager hooks and late re-fires exactly like
  /// WindowMachine::add.
  void add(const Tuple<In>& t, Timestamp w, const FireFn& fire,
           const AddedFn& added = {}) {
    Key key = key_fn_(t.value);
    // Operator-level admission shedding, mirroring WindowMachine::add so
    // both window backends degrade identically under the same policy.
    if (shedder_ != nullptr && !admit(hash_of(key), t, w)) return;
    add_admitted(t, w, fire, added, key);
  }

  /// Micro-batch ingest of a contiguous tuple run sharing one watermark
  /// (channel blocks never span a control element, so `w` is constant
  /// across the run). Maximal same-key, same-pane runs inside a pane the
  /// admission memo marks in-order for every query are absorbed with ONE
  /// policy call — the columnar kernel when the monoid is tagged — while
  /// anything needing the slow path (late/closing tuples, eager hooks,
  /// policies without absorb_run) takes the per-tuple route. Shedder
  /// admission is consulted exactly once per tuple in arrival order, so
  /// shed accounting and the shedder's deterministic decision stream are
  /// identical to calling add() per element.
  void add_block(const Tuple<In>* ts, std::size_t n, Timestamp w,
                 const FireFn& fire, const AddedFn& added = {}) {
    if constexpr (kHasBatchAbsorb) {
      if (!added) {
        absorb_block(ts, n, w, fire);
        return;
      }
    }
    // Eager hooks observe every insert in order, and a policy without
    // absorb_run has nothing to batch.
    for (std::size_t i = 0; i < n; ++i) add(ts[i], w, fire, added);
  }

  /// Fires, for every query, every instance completed by watermark `w`
  /// (ascending, once per (query, instance, key)), then purges panes the
  /// last query is done with and each query's fired flags past its own
  /// lateness horizon.
  void advance(Timestamp w, const FireFn& fire) {
    memo_valid_ = false;  // cursors move and purge may reshape the panes
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = query(q);
      if (w < kMinTimestamp + qu.spec.size) continue;  // nothing closes yet
      if (qu.have_cursor) {
        walk_instances(qu, std::max(qu.cursor, qu.horizon),
                       [&](Timestamp l, PaneIt first_pane) {
                         if (!qu.spec.closes(l, w)) return false;
                         fire_instance(q, qu, l, first_pane, fire);
                         return true;
                       });
      }
      // Everything left of first_instance(w) is closed: late arrivals
      // there re-fire through add(); the cursor never revisits them.
      const Timestamp next_open = qu.spec.first_instance(w);
      if (!qu.have_cursor || next_open > qu.cursor) qu.cursor = next_open;
      qu.have_cursor = true;
    }
    purge(w);
  }

  /// Fires everything still unfired across all queries (end-of-stream
  /// flush), then clears shared and per-query state.
  void flush(const FireFn& fire) {
    memo_valid_ = false;
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = query(q);
      if (qu.have_cursor) {
        walk_instances(qu, std::max(qu.cursor, qu.horizon),
                       [&](Timestamp l, PaneIt first_pane) {
                         fire_instance(q, qu, l, first_pane, fire);
                         return true;
                       });
      }
    }
    panes_.clear();
    policy_.reset();
    pane_cache_ = nullptr;
    occupancy_ = 0;
    for (Query& qu : queries_) {
      qu.fired.clear();
      qu.active_keys.clear();
      qu.union_valid = false;
      qu.have_cursor = false;
      qu.cursor = 0;
    }
  }

  // --- Diagnostics. Per-query counters default to query 0, the only one
  // of a single-query engine.
  std::uint64_t dropped_late(int q = 0) const { return query(q).dropped_late; }
  std::uint64_t late_updates(int q = 0) const { return query(q).late_updates; }
  std::uint64_t fired_instances(int q = 0) const {
    return query(q).fired_instances;
  }
  std::size_t open_panes() const { return panes_.size(); }

  /// Installs the store-level load shedder consulted at admission (same
  /// contract as WindowMachine::set_shedder; one decision per tuple,
  /// per-query attribution). The shedder owns the counters and must
  /// outlive the engine; nullptr disables shedding.
  void set_shedder(Shedder* shedder) { shedder_ = shedder; }
  std::uint64_t shed() const {
    return shedder_ != nullptr ? shedder_->shed() : 0;
  }
  std::uint64_t shed_for_query(int q) const {
    return shedder_ != nullptr ? shedder_->shed_for_query(q) : 0;
  }

  /// Occupancy diagnostics: tuples currently stored (each exactly once —
  /// Policy::cell_count reports a cell's contribution, entries for replay,
  /// folded count for monoid partials) and high-water marks since the last
  /// reset_diagnostics().
  std::uint64_t occupancy() const { return occupancy_; }
  std::uint64_t peak_occupancy() const { return peak_occupancy_; }
  std::uint64_t peak_panes() const { return peak_panes_; }
  void reset_diagnostics() {
    peak_occupancy_ = occupancy_;
    peak_panes_ = panes_.size();
    for (Query& qu : queries_) qu.late_probe.reset();
    // Policies with their own diagnostics (cache evictions, out-of-order
    // fixups, peak cached keys) clear them under the same call — the PR-3
    // convention that a reset leaves no counter from a previous run.
    if constexpr (requires(Policy& p) { p.reset_diagnostics(); }) {
      policy_.reset_diagnostics();
    }
  }

  /// Number of query q's instances holding data and not yet purged
  /// (WindowMachine's open_instances analogue). O(instances) —
  /// diagnostics/tests only.
  std::size_t open_instances(int q = 0) const {
    if (panes_.empty()) return 0;
    const Query& qu = query(q);
    std::size_t n = 0;
    walk_instances(
        qu, std::max(qu.spec.first_instance(panes_.begin()->first), qu.horizon),
        [&n](Timestamp, PaneIt) {
          ++n;
          return true;
        });
    return n;
  }

  /// Rate-limited late-tuple diagnostics for query q (see late_probe.hpp);
  /// events carry the query index (LateEvent::query).
  void set_late_probe(int q, LateProbe::Fn fn, std::uint64_t every = 1024) {
    query(q).late_probe.set(std::move(fn), every);
  }
  void set_late_probe(LateProbe::Fn fn, std::uint64_t every = 1024) {
    set_late_probe(0, std::move(fn), every);
  }
  const LateProbe& late_probe(int q = 0) const { return query(q).late_probe; }

 private:
  /// A query's recoverable state: what save() persists and a Frozen copies.
  struct QueryState {
    WindowSpec spec;
    /// Fired flags per (instance, key), materialized at fire time only and
    /// kept until the instance's lateness horizon passes (they gate late
    /// update re-fires, mirroring WindowMachine's Bucket::fired). Never
    /// written when L = 0: every fired instance is purged by the advance
    /// that fires it, so the flag section of a snapshot is empty anyway.
    std::map<Timestamp, std::unordered_map<Key, bool>> fired;
    bool have_cursor{false};
    Timestamp cursor{0};  ///< first instance advance() may still fire
    Timestamp horizon{kMinTimestamp};  ///< instances below are purged
    std::uint64_t dropped_late{0};
    std::uint64_t late_updates{0};
    std::uint64_t fired_instances{0};
  };

 public:
  /// Serializes the shared pane cells once plus each query's fired flags,
  /// cursors and counters — one cut covers all Q queries. Policy caches
  /// (two-stacks, per-key trees) are rebuilt after load, never persisted —
  /// a snapshot cannot resurrect a stale cached aggregate.
  void save(SnapshotWriter& w) const {
    write_state(w, panes_, policy_, queries_, next_seq_);
  }

  /// Restores a save(); a lattice snapshot's query count must match the
  /// registered specs (the owning operator reports the SnapshotError).
  void load(SnapshotReader& r) {
    panes_.clear();
    occupancy_ = 0;
    const std::size_t n_panes = r.read_size();
    for (std::size_t i = 0; i < n_panes; ++i) {
      const Timestamp p = r.read_i64();
      auto& cells = panes_.mutate(p);
      const std::size_t n_cells = r.read_size();
      for (std::size_t c = 0; c < n_cells; ++c) {
        Key key = read_value<Key>(r);
        auto cell = cells.emplace(std::move(key), policy_.load_cell(r));
        occupancy_ += Policy::cell_count(cell.first->second);
      }
    }
    if constexpr (kMulti) {
      next_seq_ = r.read_u64();
      const std::size_t n_queries = r.read_size();
      if (n_queries != queries_.size()) {
        throw SnapshotError("SharedLattice snapshot holds " +
                            std::to_string(n_queries) + " queries, " +
                            std::to_string(queries_.size()) + " registered");
      }
      for (Query& qu : queries_) {
        read_walk(r, qu);
        read_counters(r, qu);
      }
    } else {
      read_walk(r, queries_[0]);
      next_seq_ = r.read_u64();
      read_counters(r, queries_[0]);
    }
    for (Query& qu : queries_) {
      qu.active_keys.clear();
      qu.union_valid = false;
    }
    policy_.reset();
    pane_cache_ = nullptr;
    memo_valid_ = false;
    peak_occupancy_ = occupancy_;
    peak_panes_ = panes_.size();
  }

  /// An immutable copy of the engine's recoverable state at one epoch:
  /// pane versions shared copy-on-write with the live map, plus each
  /// query's state. serialize() reproduces save()'s exact byte layout, so
  /// a frozen snapshot and a quiesced one are interchangeable on restore.
  /// The policy pointer is borrowed — a Frozen must not outlive its
  /// engine's flow (ThreadedFlow::run drains the async executor before
  /// nodes die; StateQuery reads are documented live-state reads).
  struct Frozen {
    PaneMap panes;
    std::vector<QueryState> queries;
    std::uint64_t next_seq{0};
    const Policy* policy{nullptr};
    std::shared_ptr<EpochRegistry> registry;
    std::uint64_t epoch{0};

    const WindowSpec& spec(int q = 0) const {
      return queries[static_cast<std::size_t>(q)].spec;
    }

    void serialize(SnapshotWriter& w) const {
      write_state(w, panes, *policy, queries, next_seq);
    }

    /// Cache-free read of query q's instance at `l` for `key` — only for
    /// policies exposing fold_window (the monoid family). What StateQuery
    /// point/range reads evaluate against.
    Result fold(int q, Timestamp l, const Key& key) const
      requires requires(const Policy& p) { p.fold_window(panes, l, l, key); }
    {
      return policy->fold_window(panes, l, l + spec(q).size, key);
    }
  };

  /// Freezes the current epoch: O(panes) shared-version copy, epoch
  /// advance + pin. The caller (the async snapshot job) must
  /// release_frozen() when done so retired versions can be collected.
  /// Invalidates the write-through pane cache — the next store clones any
  /// pane the snapshot still shares.
  Frozen freeze() {
    pane_cache_ = nullptr;
    memo_valid_ = false;
    Frozen f;
    f.epoch = registry_->advance();
    registry_->pin(f.epoch);
    f.panes = panes_.freeze();
    f.queries.assign(queries_.begin(), queries_.end());
    f.next_seq = next_seq_;
    f.policy = &policy_;
    f.registry = registry_;
    return f;
  }

  /// Unpins a frozen epoch and collects versions no snapshot can reach.
  /// Thread-safe (registry-internal locking); called from the async
  /// checkpoint worker's post hook.
  static void release_frozen(const Frozen& f) {
    f.registry->unpin(f.epoch);
    f.registry->collect();
  }

  const EpochRegistry& epochs() const { return *registry_; }
  std::uint64_t cow_clones() const { return panes_.cow_clones(); }

 private:
  /// A query's state: the recoverable part plus caches never serialized.
  struct Query : QueryState {
    /// g = WS and L = 0: each instance is exactly one pane and needs no
    /// fired flags, so fire_instance reads the keys off that pane. (With
    /// L > 0 the flags are written in key-union order, which save() keeps;
    /// firing in pane order would reorder the snapshot's flag section.)
    bool fire_from_pane{false};
    /// Sliding key-union cache for fire_instance: per key, the number of
    /// live (pane, key) cells in panes [union_from, union_to). Rebuilt from
    /// the panes whenever the walk jumps backwards.
    std::unordered_map<Key, std::uint32_t> active_keys;
    Timestamp union_from{0};
    Timestamp union_to{0};
    bool union_valid{false};
    LateProbe late_probe;
  };

  struct Specs {
    std::vector<WindowSpec> specs;
  };

  PaneEngine(Specs s, KeyFn key_fn, Policy policy)
      : geom_{shared_pane_width(s.specs)},
        key_fn_(std::move(key_fn)),
        policy_(std::move(policy)),
        registry_(std::make_shared<EpochRegistry>()) {
    panes_.bind_registry(registry_);
    queries_.resize(s.specs.size());
    for (std::size_t q = 0; q < s.specs.size(); ++q) {
      Query& qu = queries_[q];
      qu.spec = s.specs[q];
      qu.fire_from_pane = geom_.width == qu.spec.size && qu.spec.lateness == 0;
      qu.late_probe.set_query(static_cast<int>(q));
    }
  }

  Query& query(int q) { return queries_[static_cast<std::size_t>(q)]; }
  const Query& query(int q) const {
    return queries_[static_cast<std::size_t>(q)];
  }

  static std::uint64_t hash_of(const Key& key) {
    return static_cast<std::uint64_t>(std::hash<Key>{}(key));
  }

  /// Whether ts falls inside at least one instance of `spec` (always true
  /// for overlapping/tumbling specs; WS < WA leaves gaps).
  static bool contains(const WindowSpec& spec, Timestamp ts) {
    return spec.size >= spec.advance ||
           spec.first_instance(ts) <= spec.last_instance(ts);
  }

  static void touch_cursor(Query& qu, Timestamp first) {
    if (!qu.have_cursor || first < qu.cursor) qu.cursor = first;
    qu.have_cursor = true;
  }

  /// Calls a FireFn or AddedFn for query q: the lattice passes q first,
  /// the single-query engine drops it (WindowMachine's signatures).
  template <typename Fn, typename... Args>
  static void emit(const Fn& fn, int q, const Args&... args) {
    if constexpr (kMulti) {
      fn(q, args...);
    } else {
      fn(args...);
    }
  }

  /// Consults the shedder (installed) once for `t`. One store-level drop
  /// is attributed to every query that would have received the tuple (a
  /// tuple in query q's WS < WA gap sheds nothing from q).
  bool admit(std::uint64_t key_hash, const Tuple<In>& t, Timestamp w) {
    if (shedder_->admit(key_hash, t.ts, w)) return true;
    for (int q = 0; q < query_count(); ++q) {
      if (contains(query(q).spec, t.ts)) shedder_->attribute_query(q);
    }
    return false;
  }

  /// Per-(pane, watermark) admission memo. Pane and instance grids are
  /// both sub-grids of width·Z (width divides every WA_q and WS_q), so
  /// first_instance, last_instance — hence contains — are constant across
  /// a pane, and closes(first, w) is fixed by (pane, w). When the previous
  /// tuple of this (pane, w) took only gap-skip / in-order branches for
  /// every query, this tuple takes exactly the same ones, and their only
  /// effects are the store (key-independent decision) and cursor touches
  /// that are no-ops on a repeat (each cursor is already <= this pane's
  /// firsts). The marginal per-tuple cost of an added query is then O(1)
  /// amortized, not O(Q).
  bool memo_hit(Timestamp pane_l, Timestamp w) const {
    return memo_valid_ && pane_l == memo_pane_ && w == memo_w_;
  }

  /// add() after the shedder admitted `t` (shared by the per-element and
  /// block paths so admission is never consulted twice for one tuple).
  void add_admitted(const Tuple<In>& t, Timestamp w, const FireFn& fire,
                    const AddedFn& added, const Key& key) {
    const Timestamp pane_l = geom_.pane_of(t.ts);
    if (!added && memo_hit(pane_l, w)) {
      if (memo_store_) store_tuple(key, pane_l, t);
      return;
    }
    bool stored = false;
    bool all_in_order = !added;
    auto store_once = [&] {
      if (!stored) {
        store_tuple(key, pane_l, t);
        stored = true;
      }
    };
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = query(q);
      if (!contains(qu.spec, t.ts)) continue;  // WS < WA gap for this query
      const Timestamp first = qu.spec.first_instance(t.ts);
      if (!added && !qu.spec.closes(first, w)) {
        // In order for this query: if the earliest overlapping instance
        // has not closed, none has (closes is antitone in l) and none is
        // purgeable either (purgeable implies closes). Store once; all
        // fires happen on advance().
        store_once();
        touch_cursor(qu, first);
        continue;
      }
      all_in_order = false;
      qu.spec.for_each_instance(t.ts, [&](Timestamp l) {
        if (!qu.spec.admits(l, w)) {
          ++qu.dropped_late;
          if (qu.late_probe) qu.late_probe({l, t.ts, w, /*dropped=*/true});
          return;
        }
        // Admission is monotone in l: every instance evaluated below
        // already sees the stored tuple.
        store_once();
        touch_cursor(qu, first);
        if (added) {
          emit(added, q, l, key,
               policy_.evaluate(panes_, qu.spec, geom_, l, key,
                                /*sequential=*/false));
        }
        if (qu.spec.closes(l, w)) {
          bool& fired = qu.fired[l][key];
          const bool update = fired;
          fired = true;
          if (update) {
            ++qu.late_updates;
            if (qu.late_probe) qu.late_probe({l, t.ts, w, /*dropped=*/false});
          }
          emit(fire, q, l, key,
               policy_.evaluate(panes_, qu.spec, geom_, l, key,
                                /*sequential=*/false),
               update);
        }
      });
    }
    memo_valid_ = all_in_order;
    memo_pane_ = pane_l;
    memo_w_ = w;
    memo_store_ = stored;
  }

  /// add_block's batched path: each tuple is admitted once, in order; the
  /// first tuple of a (pane, watermark) takes the per-tuple pass, and while
  /// the admission memo holds, same-key runs in that pane are stored with
  /// one store_run each.
  void absorb_block(const Tuple<In>* ts, std::size_t n, Timestamp w,
                    const FireFn& fire) {
    std::size_t i = 0;
    while (i < n) {
      const Tuple<In>& t = ts[i];
      Key key = key_fn_(t.value);
      const std::uint64_t key_hash = shedder_ != nullptr ? hash_of(key) : 0;
      if (shedder_ != nullptr && !admit(key_hash, t, w)) {
        ++i;
        continue;
      }
      const Timestamp pane_l = geom_.pane_of(t.ts);
      if (!memo_hit(pane_l, w)) {
        // Per-query verdicts, cursor touches and late re-fires; primes the
        // memo when the pane is in order for every query.
        add_admitted(t, w, fire, {}, key);
        ++i;
        continue;
      }
      if (!memo_store_) {
        ++i;  // in every query's WS < WA gap: admitted but not stored
        continue;
      }
      const Timestamp pane_end = pane_l + geom_.width;
      bool shed_next = false;
      std::size_t j = i + 1;
      while (j < n) {
        const Tuple<In>& u = ts[j];
        // The memo's verdict is pane-constant, so only the pane range, the
        // key and admission remain per tuple on the hot scan.
        if (u.ts < pane_l || u.ts >= pane_end) break;
        if (!(key_fn_(u.value) == key)) break;
        if (shedder_ != nullptr && !admit(key_hash, u, w)) {
          shed_next = true;  // u is dropped; the run ends before it
          break;
        }
        ++j;
      }
      store_run(key, pane_l, ts + i, j - i);
      i = shed_next ? j + 1 : j;
    }
  }

  /// The write-through cell map of pane `pane_l`. `pane_cache_` memoizes
  /// the last pane's cell map (std::map references are stable until
  /// erase) so runs of tuples landing in the same pane skip the lookup.
  typename PaneMap::CellMap& pane_cells(Timestamp pane_l) {
    if (pane_cache_ == nullptr || pane_cache_l_ != pane_l) {
      pane_cache_ = &panes_.mutate(pane_l);
      pane_cache_l_ = pane_l;
    }
    return *pane_cache_;
  }

  /// Bookkeeping after `n` tuples landed in (pane_l, key): occupancy and
  /// pane peaks, and every query's key-union cache (a new cell is visible
  /// to all fire walks).
  void note_stored(const Key& key, Timestamp pane_l, std::size_t n,
                   bool inserted) {
    occupancy_ += n;
    if (occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
    if (panes_.size() > peak_panes_) peak_panes_ = panes_.size();
    if (!inserted) return;
    for (Query& qu : queries_) {
      if (qu.union_valid && pane_l >= qu.union_from && pane_l < qu.union_to) {
        ++qu.active_keys[key];
      }
    }
  }

  /// Stores `t` exactly once into its shared pane cell.
  void store_tuple(const Key& key, Timestamp pane_l, const Tuple<In>& t) {
    auto [cell, inserted] = pane_cells(pane_l).try_emplace(key);
    policy_.absorb(key, cell->second, pane_l, t, next_seq_++);
    note_stored(key, pane_l, 1, inserted);
  }

  /// store_tuple for a same-key, same-pane run: one pane lookup, one cell
  /// find-or-insert and one policy absorb for the whole run. Bookkeeping
  /// lands exactly where per-tuple stores would have left it, since the
  /// run grows occupancy monotonically within a single pane.
  void store_run(const Key& key, Timestamp pane_l, const Tuple<In>* ts,
                 std::size_t n) {
    auto [cell, inserted] = pane_cells(pane_l).try_emplace(key);
    policy_.absorb_run(key, cell->second, pane_l, ts, n, next_seq_);
    next_seq_ += n;
    note_stored(key, pane_l, n, inserted);
  }

  /// The instance walk: visits query qu's instances from `l` on,
  /// ascending, while visit(l, first_pane) returns true. The first pane
  /// >= l bounds the next instance that can have data, so instances with
  /// no pane in range are jumped over — advance cost scales with instances
  /// holding data, not with event-time gaps.
  template <typename Visit>
  void walk_instances(const Query& qu, Timestamp l, Visit&& visit) const {
    while (true) {
      auto it = panes_.lower_bound(l);
      if (it == panes_.end()) return;
      const Timestamp first = qu.spec.first_instance(it->first);
      if (first > l) l = first;
      if (!visit(l, it)) return;
      l += qu.spec.advance;
    }
  }

  /// Fires query q's instance l for every key with data in it;
  /// `first_pane` is the first pane at or after the walk's previous
  /// position. The key-union over the instance's panes is maintained as a
  /// sliding multiset across the (monotone) fire walk, so each pane's
  /// cells are scanned once per pass instead of once per overlapping
  /// instance — this is what keeps the whole advance path O(1) amortized
  /// per tuple.
  void fire_instance(int q, Query& qu, Timestamp l, PaneIt first_pane,
                     const FireFn& fire) {
    if (qu.fire_from_pane) {
      // The instance is exactly pane l (g = WS: every tumbling window):
      // that pane's cells are the key set, and each cell in hand is the
      // whole instance for its key. Pane l is the walk's first pane unless
      // it lies in this query's WS < WA gap and another query stored it.
      if (first_pane->first != l) {
        first_pane = panes_.find(l);
        if (first_pane == panes_.end()) return;
      }
      for (const auto& [key, cell] : first_pane->second) {
        ++qu.fired_instances;
        emit(fire, q, l, key, evaluate_pane(qu, l, key, cell), false);
      }
      return;
    }
    const Timestamp end = l + qu.spec.size;
    if (!qu.union_valid || qu.union_from > l || qu.union_to > end ||
        qu.union_to < l) {
      // Rebuild from scratch when the walk jumped backwards (late
      // arrival) or the previous window is disjoint (WS < WA gaps, or a
      // cursor jump): sliding would walk panes that were never counted.
      qu.active_keys.clear();
      qu.union_from = qu.union_to = l;
      qu.union_valid = true;
    }
    while (qu.union_from < l) {
      drop_pane_keys(qu, qu.union_from);
      qu.union_from += geom_.width;
    }
    while (qu.union_to < end) {
      count_pane_keys(qu, qu.union_to);
      qu.union_to += geom_.width;
    }
    if (qu.active_keys.empty()) return;
    // Fired flags gate late updates only; with L = 0 nothing is admitted
    // into a closed instance, so no flag is ever read (DESIGN.md § 9).
    auto* flags = qu.spec.lateness > 0 ? &qu.fired[l] : nullptr;
    for (const auto& [key, live_cells] : qu.active_keys) {
      if (flags != nullptr) {
        bool& fired = (*flags)[key];
        if (fired) continue;
        fired = true;
      }
      ++qu.fired_instances;
      emit(fire, q, l, key,
           policy_.evaluate(panes_, qu.spec, geom_, l, key,
                            /*sequential=*/true),
           false);
    }
  }

  /// Sequential evaluation of a one-pane instance from the cell in hand,
  /// for policies that can (ReplayPolicy); the rest evaluate as usual.
  decltype(auto) evaluate_pane(const Query& qu, Timestamp l, const Key& key,
                               const Cell& cell) {
    if constexpr (requires { policy_.evaluate_cell(cell); }) {
      return policy_.evaluate_cell(cell);
    } else {
      return policy_.evaluate(panes_, qu.spec, geom_, l, key,
                              /*sequential=*/true);
    }
  }

  void count_pane_keys(Query& qu, Timestamp p) {
    auto it = panes_.find(p);
    if (it == panes_.end()) return;
    for (const auto& [key, cell] : it->second) ++qu.active_keys[key];
  }

  void drop_pane_keys(Query& qu, Timestamp p) {
    auto it = panes_.find(p);
    if (it == panes_.end()) return;  // already purged (union decremented)
    for (const auto& [key, cell] : it->second) {
      auto k = qu.active_keys.find(key);
      if (k != qu.active_keys.end() && --k->second == 0) {
        qu.active_keys.erase(k);
      }
    }
  }

  /// Whether pane p can be erased at watermark w: the last instance
  /// containing it is purgeable for *every* query.
  bool pane_dead(Timestamp p, Timestamp w) const {
    for (const Query& qu : queries_) {
      if (w < kMinTimestamp + qu.spec.size + qu.spec.lateness ||
          !qu.spec.purgeable(qu.spec.last_instance(p), w)) {
        return false;
      }
    }
    return true;
  }

  /// A pane dies only when pane_dead; each query's fired flags are purged
  /// against its own lateness horizon, exactly as a dedicated engine would.
  void purge(Timestamp w) {
    while (!panes_.empty() && pane_dead(panes_.begin()->first, w)) {
      const Timestamp p = panes_.begin()->first;
      for (Query& qu : queries_) {
        if (qu.union_valid && p >= qu.union_from && p < qu.union_to) {
          drop_pane_keys(qu, p);  // keep a lagging key-union consistent
        }
      }
      if (pane_cache_l_ == p) pane_cache_ = nullptr;
      for (const auto& [key, cell] : panes_.begin()->second) {
        occupancy_ -= Policy::cell_count(cell);
      }
      if constexpr (requires(Policy& pol) {
                      pol.on_pane_purged(p, panes_.begin()->second);
                    }) {
        policy_.on_pane_purged(p, panes_.begin()->second);
      }
      panes_.erase(panes_.begin());
    }
    for (Query& qu : queries_) {
      if (w < kMinTimestamp + qu.spec.size + qu.spec.lateness) continue;
      // First non-purgeable instance: smallest multiple of WA > w - WS - L.
      const Timestamp h =
          (floor_div(w - qu.spec.size - qu.spec.lateness, qu.spec.advance) +
           1) *
          qu.spec.advance;
      if (h > qu.horizon) {
        qu.horizon = h;
        while (!qu.fired.empty() && qu.fired.begin()->first < qu.horizon) {
          qu.fired.erase(qu.fired.begin());
        }
      }
    }
  }

  // --- Snapshot codec: one set of per-pane and per-query writers/readers;
  // only the header order differs between the two presentations.

  template <typename Queries>
  static void write_state(SnapshotWriter& w, const PaneMap& panes,
                          const Policy& policy, const Queries& queries,
                          std::uint64_t next_seq) {
    w.write_size(panes.size());
    for (const auto& [p, cells] : panes) {
      w.write_i64(p);
      w.write_size(cells.size());
      for (const auto& [key, cell] : cells) {
        write_value(w, key);
        policy.save_cell(w, cell);
      }
    }
    if constexpr (kMulti) {
      w.write_u64(next_seq);
      w.write_size(queries.size());
      for (const QueryState& qs : queries) {
        write_walk(w, qs);
        write_counters(w, qs);
      }
    } else {
      write_walk(w, queries[0]);
      w.write_u64(next_seq);
      write_counters(w, queries[0]);
    }
  }

  /// Fired flags, cursor and horizon of one query.
  static void write_walk(SnapshotWriter& w, const QueryState& qs) {
    w.write_size(qs.fired.size());
    for (const auto& [l, keys] : qs.fired) {
      w.write_i64(l);
      w.write_size(keys.size());
      for (const auto& [key, fired] : keys) {
        write_value(w, key);
        w.write_bool(fired);
      }
    }
    w.write_bool(qs.have_cursor);
    w.write_i64(qs.cursor);
    w.write_i64(qs.horizon);
  }

  static void write_counters(SnapshotWriter& w, const QueryState& qs) {
    w.write_u64(qs.dropped_late);
    w.write_u64(qs.late_updates);
    w.write_u64(qs.fired_instances);
  }

  static void read_walk(SnapshotReader& r, QueryState& qs) {
    qs.fired.clear();
    const std::size_t n_fired = r.read_size();
    for (std::size_t i = 0; i < n_fired; ++i) {
      const Timestamp l = r.read_i64();
      auto& keys = qs.fired[l];
      const std::size_t n_keys = r.read_size();
      for (std::size_t k = 0; k < n_keys; ++k) {
        Key key = read_value<Key>(r);
        const bool fired = r.read_bool();
        keys.emplace(std::move(key), fired);
      }
    }
    qs.have_cursor = r.read_bool();
    qs.cursor = r.read_i64();
    qs.horizon = r.read_i64();
  }

  static void read_counters(SnapshotReader& r, QueryState& qs) {
    qs.dropped_late = r.read_u64();
    qs.late_updates = r.read_u64();
    qs.fired_instances = r.read_u64();
  }

  PaneGeometry geom_;
  KeyFn key_fn_;
  Policy policy_;
  PaneMap panes_;
  std::vector<Query> queries_;
  /// Memoized cell map of the pane written by the previous store.
  /// Invalidated by purge of that pane AND by freeze(): after a freeze the
  /// slot is shared, so the next store must go through mutate() to clone.
  typename PaneMap::CellMap* pane_cache_{nullptr};
  Timestamp pane_cache_l_{0};
  /// The admission memo (memo_hit): valid when the last slow pass took
  /// only gap-skip / in-order branches for every query. Never serialized;
  /// invalidated by advance/flush/load/freeze.
  bool memo_valid_{false};
  bool memo_store_{false};
  Timestamp memo_pane_{0};
  Timestamp memo_w_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t occupancy_{0};
  std::uint64_t peak_occupancy_{0};
  std::uint64_t peak_panes_{0};
  Shedder* shedder_{nullptr};
  std::shared_ptr<EpochRegistry> registry_;
};

/// The single-query engine: one spec, WindowMachine-compatible callbacks.
/// A class rather than an alias so the type keeps its own name wherever
/// one is printed (typed-test names, diagnostics).
template <typename In, typename Key, typename Policy>
class SlicedEngine : public PaneEngine<In, Key, Policy, /*kMulti=*/false> {
 public:
  using PaneEngine<In, Key, Policy, false>::PaneEngine;
};

/// The shared lattice: Q specs, query-indexed callbacks.
template <typename In, typename Key, typename Policy>
using SharedLattice = PaneEngine<In, Key, Policy, /*kMulti=*/true>;

}  // namespace aggspes::swa
