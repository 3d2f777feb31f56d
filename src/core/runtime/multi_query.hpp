// MultiQueryOp (DESIGN.md § 14): one operator node hosting Q concurrent
// window queries over the same keyed stream, served from a SharedLattice.
// Each registered query gets its own outlet; every fire for query q goes
// out outlet q with that query's output event time (γ.l + WS_q − δ), and
// watermarks / end-of-stream / checkpoint markers are broadcast to all
// outlets after the lattice has fired, so per-outlet ordering (results
// before the watermark that completed them) matches a dedicated
// single-query operator exactly.
//
// Two variants mirror the single-query operator families:
//   * MultiQueryMonoidOp — f_O is a monoid shared by all queries, with a
//     per-query `lower` step; fires are O(log P) range folds off one
//     per-key tree (LatticeMonoidPolicy).
//   * MultiQueryReplayOp — arbitrary per-query f_O over the instance's
//     materialized tuples (ReplayPolicy), the fallback when f_O is not a
//     monoid homomorphism.
//
// Both variants share one node body (MultiQueryNode) and differ only in
// the lattice kind, the fire lowering and the cache-knob value they write.
// Tuple blocks from the channel go through the lattice's add_block.
//
// Recovery: the snapshot codec is versioned (JoinOp precedent) and writes
// the shared lattice once — a single barrier cut covers all Q queries.
// Restoring into an operator with a different query count is a
// SnapshotError, not silent misattribution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/operator_base.hpp"
#include "core/operators/window_machine.hpp"
#include "core/swa/shared_lattice.hpp"

namespace aggspes {

inline constexpr std::uint8_t kMultiQueryCodecVersion = 1;

/// One registered monoid query: its window spec plus the per-query
/// lowering from the shared monoid's WindowAggregate to output payloads.
template <typename Out, typename Key, typename Agg>
struct MonoidQuery {
  WindowSpec spec;
  std::function<std::optional<Out>(const Key&,
                                   const swa::WindowAggregate<Agg>&)>
      lower;
};

/// One registered replay query: its window spec plus an arbitrary f_O
/// over the instance's materialized tuples.
template <typename In, typename Out, typename Key>
struct ReplayQuery {
  WindowSpec spec;
  std::function<std::optional<Out>(const WindowView<In, Key>&)> f_o;
};

/// The node body both multi-query operators share: one outlet per query,
/// the lattice driven by the element stream (tuple blocks through
/// add_block), watermark/end/marker broadcast after the lattice fired, and
/// the versioned snapshot codec on both the quiesced and the async path.
/// A variant supplies only the lattice kind, the fire lowering (`fire`)
/// and — through its policy — the cache-knob value the codec writes.
template <typename In, typename Out, typename Lattice, bool kSerializable>
class MultiQueryNode : public UnaryNode<In, Out> {
 public:
  using KeyFn = typename Lattice::KeyFn;

  /// Outlet carrying query q's results (the inherited out() is unused —
  /// it would collapse all queries onto one stream).
  Outlet<Out>& out(int q) { return outs_[static_cast<std::size_t>(q)]; }
  int query_count() const { return lattice_.query_count(); }

  Lattice& lattice() { return lattice_; }
  const Lattice& lattice() const { return lattice_; }

  void fail_downstream() override {
    for (Outlet<Out>& o : outs_) o.push_end();
  }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      w.write_pod<std::uint8_t>(kMultiQueryCodecVersion);
      w.write_u64(cache_knob());
      lattice_.save(w);
    } else {
      w.write_pod<std::uint8_t>(0);  // no state (cells lack a codec)
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const std::uint8_t version = r.read_pod<std::uint8_t>();
    if (version == 0) return;
    if constexpr (kSerializable) {
      if (version != kMultiQueryCodecVersion) {
        throw SnapshotError("unknown " + std::string(name_) +
                            " codec version " + std::to_string(version));
      }
      const std::uint64_t knob = r.read_u64();
      if constexpr (kHasKnob) lattice_.policy().set_max_cached_keys(knob);
      lattice_.load(r);
    } else {
      throw SnapshotError(std::string(name_) + " state lacks a StateCodec");
    }
  }

 protected:
  using FireFn = typename Lattice::FireFn;

  template <typename Query, typename Policy>
  MultiQueryNode(const char* name, const std::vector<Query>& queries,
                 KeyFn f_k, Policy policy, FireFn fire)
      : UnaryNode<In, Out>(1, 0),
        name_(name),
        lattice_(specs_of(queries), std::move(f_k), std::move(policy)),
        outs_(queries.size()),
        fire_(std::move(fire)) {}

  void on_tuple(int, const Tuple<In>& t) override {
    lattice_.add(t, this->watermark(), fire_);
  }

  void on_tuple_block(int, const Tuple<In>* ts, std::size_t n) override {
    lattice_.add_block(ts, n, this->watermark(), fire_);
  }

  void on_watermark(Timestamp w) override {
    lattice_.advance(w, fire_);
    for (Outlet<Out>& o : outs_) o.push_watermark(w);
  }

  void on_end() override {
    lattice_.flush(fire_);
    for (Outlet<Out>& o : outs_) o.push_end();
  }

  void on_marker(std::uint64_t id) override {
    this->complete_barrier(id);
    for (Outlet<Out>& o : outs_) {
      o.push(Element<Out>{CheckpointMarker{id}});
    }
  }

  /// Non-quiescent barrier path: one lattice freeze covers all Q queries;
  /// serialization of the shared cut runs on the async executor.
  std::optional<FrozenJob> freeze_snapshot(std::uint64_t) override {
    if constexpr (kSerializable) {
      if (!this->async_enabled()) return std::nullopt;
      SnapshotWriter base;
      this->save_base(base);
      FrozenJob job;
      job.serialize = [frozen = swa::freeze_shared(lattice_),
                       head = base.take(), knob = cache_knob()]() {
        SnapshotWriter w;
        w.write_raw(head.data(), head.size());
        w.write_pod<std::uint8_t>(kMultiQueryCodecVersion);
        w.write_u64(knob);
        frozen->serialize(w);
        return w.take();
      };
      return job;
    } else {
      return std::nullopt;
    }
  }

 private:
  /// Policies with a per-key cache bound persist it (the monoid lattice);
  /// the replay lattice has none and writes 0 to keep one layout.
  static constexpr bool kHasKnob =
      requires(const Lattice& l) { l.policy().max_cached_keys(); };

  std::uint64_t cache_knob() const {
    if constexpr (kHasKnob) {
      return lattice_.policy().max_cached_keys();
    } else {
      return 0;
    }
  }

  template <typename Query>
  static std::vector<WindowSpec> specs_of(const std::vector<Query>& qs) {
    std::vector<WindowSpec> specs;
    specs.reserve(qs.size());
    for (const Query& q : qs) specs.push_back(q.spec);
    return specs;
  }

  const char* name_;
  Lattice lattice_;
  std::vector<Outlet<Out>> outs_;
  FireFn fire_;
};

/// Q monoid queries over one shared lattice: per-query O(log P) range
/// folds off one tree per key.
template <typename In, typename Out, typename Key, typename Agg>
class MultiQueryMonoidOp final
    : public MultiQueryNode<In, Out, swa::MonoidLattice<In, Agg, Key>,
                            SnapshotSerializable<Agg> &&
                                SnapshotSerializable<Key>> {
 public:
  using Lattice = swa::MonoidLattice<In, Agg, Key>;
  using KeyFn = typename Lattice::KeyFn;
  using Query = MonoidQuery<Out, Key, Agg>;

  MultiQueryMonoidOp(std::vector<Query> queries, KeyFn f_k,
                     swa::Monoid<In, Agg> m)
      : MultiQueryMonoidOp::MultiQueryNode(
            "MultiQueryMonoidOp", queries, std::move(f_k),
            swa::LatticeMonoidPolicy<In, Agg, Key>(std::move(m)),
            [this](int q, Timestamp l, const Key& k,
                   const swa::WindowAggregate<Agg>& wa,
                   bool) { fire(q, l, k, wa); }),
        queries_(std::move(queries)) {}

 private:
  void fire(int q, Timestamp l, const Key& key,
            const swa::WindowAggregate<Agg>& wa) {
    Query& query = queries_[static_cast<std::size_t>(q)];
    if (std::optional<Out> o = query.lower(key, wa)) {
      this->out(q).push_tuple(
          Tuple<Out>{query.spec.output_ts(l), wa.stamp, std::move(*o)});
    }
  }

  std::vector<Query> queries_;
};

/// Q arbitrary-f_O queries over one shared lattice: each fire materializes
/// the instance's tuples (arrival order) and hands query q's f_O a
/// WindowView — the replay fallback, exactly the buffering semantics.
template <typename In, typename Out, typename Key>
class MultiQueryReplayOp final
    : public MultiQueryNode<In, Out, swa::ReplayLattice<In, Key>,
                            SnapshotSerializable<In> &&
                                SnapshotSerializable<Key>> {
 public:
  using Lattice = swa::ReplayLattice<In, Key>;
  using KeyFn = typename Lattice::KeyFn;
  using Query = ReplayQuery<In, Out, Key>;

  MultiQueryReplayOp(std::vector<Query> queries, KeyFn f_k)
      : MultiQueryReplayOp::MultiQueryNode(
            "MultiQueryReplayOp", queries, std::move(f_k),
            swa::ReplayPolicy<In>{},
            [this](int q, Timestamp l, const Key& k,
                   const std::vector<Tuple<In>>& items,
                   bool) { fire(q, l, k, items); }),
        queries_(std::move(queries)) {}

 private:
  void fire(int q, Timestamp l, const Key& key,
            const std::vector<Tuple<In>>& items) {
    Query& query = queries_[static_cast<std::size_t>(q)];
    WindowView<In, Key> view{l, query.spec.size, key, items};
    if (std::optional<Out> o = query.f_o(view)) {
      std::uint64_t stamp = 0;
      for (const Tuple<In>& t : items) stamp = std::max(stamp, t.stamp);
      this->out(q).push_tuple(
          Tuple<Out>{query.spec.output_ts(l), stamp, std::move(*o)});
    }
  }

  std::vector<Query> queries_;
};

}  // namespace aggspes
