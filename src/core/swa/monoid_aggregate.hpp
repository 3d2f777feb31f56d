// Aggregate / A+ / A++ over the incremental monoid backends (DESIGN.md
// § 9, § 11). The operator-facing contract mirrors the buffering family —
// same watermark ordering (results before the watermark that completed
// them), same output event time γ.l + WS − δ, same allowed-lateness
// re-fires and end-of-stream flush — but f_O is split into the monoid
// ⟨lift, combine, identity⟩ (evaluated incrementally) and a `lower` step
// mapping the finished WindowAggregate to output payloads. Functions that
// cannot be expressed this way stay on the replay backends
// (core/swa/backends.hpp) or the buffering originals.
//
// The evaluation policy is a template parameter: MonoidPolicy (two-stacks,
// amortized O(1) — the default and the PR-2 behaviour), DabaPolicy
// (worst-case O(1) per tuple, no flip spike) or FingerTreePolicy
// (out-of-order absorbs without cross-key invalidation). All three share
// one pane-cell format, so a snapshot taken under any of them restores
// into any other.
//
// Snapshot codec: versioned, following the JoinOp precedent. Version 2
// (current) adds the policy's max-cached-keys bound so a restored
// operator keeps its memory knob; the legacy layout — whose first
// post-base byte was a has_state bool of 0/1, disjoint from version tags
// >= 2 — is read as version 1 and migrated (machine state only, knob at
// its default). Unknown versions raise SnapshotError.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/operators/operator_base.hpp"
#include "core/runtime/state_query.hpp"
#include "core/swa/daba.hpp"
#include "core/swa/finger_tree.hpp"
#include "core/swa/monoid_machine.hpp"

namespace aggspes::swa {

inline constexpr std::uint8_t kMonoidAggCodecVersion = 2;

namespace detail {

/// Shared codec: version byte, policy knob, machine state.
template <typename Machine>
void save_monoid_machine(SnapshotWriter& w, const Machine& m,
                         std::uint64_t max_cached_keys) {
  w.write_pod<std::uint8_t>(kMonoidAggCodecVersion);
  w.write_u64(max_cached_keys);
  m.save(w);
}

template <typename Machine>
void load_monoid_machine(SnapshotReader& r, std::uint8_t version, Machine& m,
                         const char* who) {
  if (version == 1) {
    m.load(r);  // legacy bool-true layout: machine state, no knob
  } else if (version == kMonoidAggCodecVersion) {
    m.policy().set_max_cached_keys(r.read_u64());
    m.load(r);
  } else {
    throw SnapshotError("unknown " + std::string(who) + " codec version " +
                        std::to_string(version));
  }
}

/// Async-snapshot job over a frozen epoch: reproduces snapshot_to's exact
/// bytes (base header, version byte, policy knob, machine state) off the
/// operator thread.
template <typename Machine>
FrozenJob monoid_snapshot_job(
    std::shared_ptr<const typename Machine::Frozen> frozen,
    SnapshotWriter::Bytes base, std::uint64_t max_cached_keys) {
  FrozenJob job;
  job.serialize = [frozen = std::move(frozen), base = std::move(base),
                   max_cached_keys]() {
    SnapshotWriter w;
    w.write_raw(base.data(), base.size());
    w.write_pod<std::uint8_t>(kMonoidAggCodecVersion);
    w.write_u64(max_cached_keys);
    frozen->serialize(w);
    return w.take();
  };
  return job;
}

}  // namespace detail

/// A with a monoid f_O: at most one output per instance.
template <typename In, typename Out, typename Key, typename Agg,
          typename Policy = MonoidPolicy<In, Agg, Key>>
class MonoidAggregateOp final : public UnaryNode<In, Out> {
 public:
  using Machine = SlicedEngine<In, Key, Policy>;
  using KeyFn = typename Machine::KeyFn;
  /// lower(key, window aggregate) → payload, or nullopt (∅) for no output.
  using LowerFn =
      std::function<std::optional<Out>(const Key&, const WindowAggregate<Agg>&)>;

  MonoidAggregateOp(WindowSpec spec, KeyFn f_k, Monoid<In, Agg> m,
                    LowerFn lower, int regular_inputs = 1,
                    int loop_inputs = 0, bool flush_on_end = true)
      : UnaryNode<In, Out>(regular_inputs, loop_inputs),
        machine_(spec, std::move(f_k), Policy(std::move(m))),
        lower_(std::move(lower)),
        flush_on_end_(flush_on_end) {}

  const Machine& machine() const { return machine_; }
  Machine& machine() { return machine_; }

  /// Serve read-only live-state queries: every barrier (and the end of
  /// the stream, as checkpoint id 0) publishes a consistent frozen cut to
  /// `hub`. The hub must outlive the flow; reads against its snapshots
  /// are valid while the flow (or the report holding it) is alive.
  void serve_state(StateQueryHub<Key, Agg>* hub) { hub_ = hub; }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      detail::save_monoid_machine(w, machine_,
                                  machine_.policy().max_cached_keys());
    } else {
      w.write_pod<std::uint8_t>(0);  // no state (payload lacks a codec)
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const std::uint8_t version = r.read_pod<std::uint8_t>();
    if (version == 0) return;
    if constexpr (kSerializable) {
      detail::load_monoid_machine(r, version, machine_, "MonoidAggregateOp");
    } else {
      throw SnapshotError("MonoidAggregateOp aggregate lacks a StateCodec");
    }
  }

 protected:
  void on_tuple(int, const Tuple<In>& t) override {
    machine_.add(t, this->watermark(), fire_);
  }

  void on_tuple_block(int, const Tuple<In>* ts, std::size_t n) override {
    machine_.add_block(ts, n, this->watermark(), fire_);
  }

  void on_watermark(Timestamp w) override {
    machine_.advance(w, fire_);
    this->out_.push_watermark(w);
  }

  void on_end() override {
    // Publish the final pre-flush cut: every window still inside the
    // lateness horizon stays queryable after the stream ends.
    if (hub_ != nullptr) publish_cut(freeze_shared(machine_), 0);
    if (flush_on_end_) machine_.flush(fire_);
    this->out_.push_end();
  }

  /// Non-quiescent barrier path: freeze the epoch on the operator thread
  /// (a cheap shared-version copy), publish a StateQuery cut if a hub is
  /// attached, and hand serialization to the async executor. Without a
  /// hub or executor the legacy synchronous snapshot_to path is kept.
  std::optional<FrozenJob> freeze_snapshot(std::uint64_t id) override {
    if (hub_ == nullptr && !this->async_enabled()) return std::nullopt;
    auto frozen = freeze_shared(machine_);
    if (hub_ != nullptr) publish_cut(frozen, id);
    if constexpr (kSerializable) {
      SnapshotWriter base;
      this->save_base(base);
      return detail::monoid_snapshot_job<Machine>(
          std::move(frozen), base.take(), machine_.policy().max_cached_keys());
    } else {
      return std::nullopt;  // sync path writes the no-state marker byte
    }
  }

 private:
  void publish_cut(std::shared_ptr<const typename Machine::Frozen> frozen,
                   std::uint64_t checkpoint_id) {
    if constexpr (requires(const typename Machine::Frozen& f, const Key& k) {
                    f.fold(0, Timestamp{0}, k);
                  }) {
      using Hub = StateQueryHub<Key, Agg>;
      auto s = std::make_shared<typename Hub::Snapshot>();
      s->epoch = frozen->epoch;
      s->checkpoint_id = checkpoint_id;
      s->watermark = this->watermark();
      s->point = [frozen](const Key& key, Timestamp l)
          -> std::optional<WindowAggregate<Agg>> {
        WindowAggregate<Agg> wa = frozen->fold(0, l, key);
        if (wa.count == 0) return std::nullopt;
        return wa;
      };
      s->range = [frozen](const Key& key, Timestamp from, Timestamp to) {
        std::vector<std::pair<Timestamp, WindowAggregate<Agg>>> out;
        const Timestamp adv = frozen->spec().advance;
        for (Timestamp l = floor_div(from + adv - 1, adv) * adv; l < to;
             l += adv) {
          WindowAggregate<Agg> wa = frozen->fold(0, l, key);
          if (wa.count != 0) out.emplace_back(l, std::move(wa));
        }
        return out;
      };
      hub_->publish(std::move(s));
    }
  }

  void fire(Timestamp l, const Key& key, const WindowAggregate<Agg>& wa) {
    if (std::optional<Out> o = lower_(key, wa)) {
      this->out_.push_tuple(
          Tuple<Out>{machine_.spec().output_ts(l), wa.stamp, std::move(*o)});
    }
  }

  static constexpr bool kSerializable =
      SnapshotSerializable<Agg> && SnapshotSerializable<Key>;

  Machine machine_;
  LowerFn lower_;
  bool flush_on_end_;
  StateQueryHub<Key, Agg>* hub_{nullptr};
  typename Machine::FireFn fire_ =
      [this](Timestamp l, const Key& k, const WindowAggregate<Agg>& wa,
             bool) { fire(l, k, wa); };
};

/// A+ with a monoid f_O: any number of outputs per instance.
template <typename In, typename Out, typename Key, typename Agg,
          typename Policy = MonoidPolicy<In, Agg, Key>>
class MonoidAggregatePlusOp final : public UnaryNode<In, Out> {
 public:
  using Machine = SlicedEngine<In, Key, Policy>;
  using KeyFn = typename Machine::KeyFn;
  using LowerFn = std::function<std::vector<Out>(
      const Key&, const WindowAggregate<Agg>&)>;

  MonoidAggregatePlusOp(WindowSpec spec, KeyFn f_k, Monoid<In, Agg> m,
                        LowerFn lower, int regular_inputs = 1,
                        int loop_inputs = 0)
      : UnaryNode<In, Out>(regular_inputs, loop_inputs),
        machine_(spec, std::move(f_k), Policy(std::move(m))),
        lower_(std::move(lower)) {}

  const Machine& machine() const { return machine_; }
  Machine& machine() { return machine_; }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      detail::save_monoid_machine(w, machine_,
                                  machine_.policy().max_cached_keys());
    } else {
      w.write_pod<std::uint8_t>(0);
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const std::uint8_t version = r.read_pod<std::uint8_t>();
    if (version == 0) return;
    if constexpr (kSerializable) {
      detail::load_monoid_machine(r, version, machine_,
                                  "MonoidAggregatePlusOp");
    } else {
      throw SnapshotError(
          "MonoidAggregatePlusOp aggregate lacks a StateCodec");
    }
  }

 protected:
  void on_tuple(int, const Tuple<In>& t) override {
    machine_.add(t, this->watermark(), fire_);
  }

  void on_tuple_block(int, const Tuple<In>* ts, std::size_t n) override {
    machine_.add_block(ts, n, this->watermark(), fire_);
  }

  void on_watermark(Timestamp w) override {
    machine_.advance(w, fire_);
    this->out_.push_watermark(w);
  }

  void on_end() override {
    machine_.flush(fire_);
    this->out_.push_end();
  }

  std::optional<FrozenJob> freeze_snapshot(std::uint64_t) override {
    if constexpr (kSerializable) {
      if (!this->async_enabled()) return std::nullopt;
      SnapshotWriter base;
      this->save_base(base);
      return detail::monoid_snapshot_job<Machine>(
          freeze_shared(machine_), base.take(),
          machine_.policy().max_cached_keys());
    } else {
      return std::nullopt;
    }
  }

 private:
  void fire(Timestamp l, const Key& key, const WindowAggregate<Agg>& wa) {
    const Timestamp ts = machine_.spec().output_ts(l);
    for (Out& o : lower_(key, wa)) {
      this->out_.push_tuple(Tuple<Out>{ts, wa.stamp, std::move(o)});
    }
  }

  static constexpr bool kSerializable =
      SnapshotSerializable<Agg> && SnapshotSerializable<Key>;

  Machine machine_;
  LowerFn lower_;
  typename Machine::FireFn fire_ =
      [this](Timestamp l, const Key& k, const WindowAggregate<Agg>& wa,
             bool) { fire(l, k, wa); };
};

/// A++ with a monoid f_O: the incremental function lowers the instance's
/// *running* aggregate on every arrival and emits immediately; `lower`
/// still runs on expiration (return {} when eager emission covers it).
template <typename In, typename Out, typename Key, typename Agg,
          typename Policy = MonoidPolicy<In, Agg, Key>>
class MonoidAggregateEagerOp final : public UnaryNode<In, Out> {
 public:
  using Machine = SlicedEngine<In, Key, Policy>;
  using KeyFn = typename Machine::KeyFn;
  using LowerFn = std::function<std::vector<Out>(
      const Key&, const WindowAggregate<Agg>&)>;

  MonoidAggregateEagerOp(WindowSpec spec, KeyFn f_k, Monoid<In, Agg> m,
                         LowerFn eager, LowerFn lower,
                         int regular_inputs = 1)
      : UnaryNode<In, Out>(regular_inputs, 0),
        machine_(spec, std::move(f_k), Policy(std::move(m))),
        eager_(std::move(eager)),
        lower_(std::move(lower)) {}

  const Machine& machine() const { return machine_; }
  Machine& machine() { return machine_; }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      detail::save_monoid_machine(w, machine_,
                                  machine_.policy().max_cached_keys());
    } else {
      w.write_pod<std::uint8_t>(0);
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const std::uint8_t version = r.read_pod<std::uint8_t>();
    if (version == 0) return;
    if constexpr (kSerializable) {
      detail::load_monoid_machine(r, version, machine_,
                                  "MonoidAggregateEagerOp");
    } else {
      throw SnapshotError(
          "MonoidAggregateEagerOp aggregate lacks a StateCodec");
    }
  }

 protected:
  void on_tuple(int, const Tuple<In>& t) override {
    machine_.add(t, this->watermark(), fire_,
                 [this](Timestamp l, const Key& key,
                        const WindowAggregate<Agg>& wa) {
                   emit_all(l, wa, eager_(key, wa));
                 });
  }

  void on_watermark(Timestamp w) override {
    machine_.advance(w, fire_);
    this->out_.push_watermark(w);
  }

  void on_end() override {
    machine_.flush(fire_);
    this->out_.push_end();
  }

  std::optional<FrozenJob> freeze_snapshot(std::uint64_t) override {
    if constexpr (kSerializable) {
      if (!this->async_enabled()) return std::nullopt;
      SnapshotWriter base;
      this->save_base(base);
      return detail::monoid_snapshot_job<Machine>(
          freeze_shared(machine_), base.take(),
          machine_.policy().max_cached_keys());
    } else {
      return std::nullopt;
    }
  }

 private:
  void emit_all(Timestamp l, const WindowAggregate<Agg>& wa,
                std::vector<Out> outs) {
    const Timestamp ts = machine_.spec().output_ts(l);
    for (Out& o : outs) {
      this->out_.push_tuple(Tuple<Out>{ts, wa.stamp, std::move(o)});
    }
  }

  static constexpr bool kSerializable =
      SnapshotSerializable<Agg> && SnapshotSerializable<Key>;

  Machine machine_;
  LowerFn eager_;
  LowerFn lower_;
  typename Machine::FireFn fire_ =
      [this](Timestamp l, const Key& k, const WindowAggregate<Agg>& wa,
             bool) { emit_all(l, wa, lower_(k, wa)); };
};

// --- Backend-selected aliases (WindowBackend::kMonoidDaba / kFingerTree)

template <typename In, typename Out, typename Key, typename Agg>
using DabaAggregateOp =
    MonoidAggregateOp<In, Out, Key, Agg, DabaPolicy<In, Agg, Key>>;
template <typename In, typename Out, typename Key, typename Agg>
using DabaAggregatePlusOp =
    MonoidAggregatePlusOp<In, Out, Key, Agg, DabaPolicy<In, Agg, Key>>;
template <typename In, typename Out, typename Key, typename Agg>
using DabaAggregateEagerOp =
    MonoidAggregateEagerOp<In, Out, Key, Agg, DabaPolicy<In, Agg, Key>>;

template <typename In, typename Out, typename Key, typename Agg>
using FingerTreeAggregateOp =
    MonoidAggregateOp<In, Out, Key, Agg, FingerTreePolicy<In, Agg, Key>>;
template <typename In, typename Out, typename Key, typename Agg>
using FingerTreeAggregatePlusOp =
    MonoidAggregatePlusOp<In, Out, Key, Agg, FingerTreePolicy<In, Agg, Key>>;
template <typename In, typename Out, typename Key, typename Agg>
using FingerTreeAggregateEagerOp =
    MonoidAggregateEagerOp<In, Out, Key, Agg, FingerTreePolicy<In, Agg, Key>>;

}  // namespace aggspes::swa
