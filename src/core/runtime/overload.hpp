// Overload control for the threaded runtime: detection, classification and
// graceful degradation (the third regime between "keeps up" and "falls
// over" that the paper's sustainable-throughput methodology, § 6.1, probes
// for but our runtime previously lacked).
//
// Detection — OverloadMonitor. The runtime's watchdog thread samples every
// channel's occupancy/stall gauges and every node's watermark position into
// the monitor, which classifies the flow as healthy / pressured /
// overloaded from (a) queue high-water fractions and (b) the event-time lag
// between the watermark frontier (sources) and the slowest consumer. All
// monitor state is atomic: producers (sources, window machines) read
// health() wait-free on their hot paths.
//
// Degradation — Shedder. A pluggable ShedPolicy applied at admission edges
// (the source's emit loop, WindowMachine::add and the pane engine's add):
//   * none              — never sheds; byte-identical to a build without
//                         overload control.
//   * random-p          — sheds each tuple with probability p(health),
//                         via a seeded generator (deterministic sequence).
//   * per-key-fair      — sheds whole (key, epoch) slices: a key is shed
//                         for an entire event-time epoch and the victim set
//                         rotates with the epoch, so no key is starved and
//                         per-key window contents stay all-or-nothing
//                         within an epoch.
//   * oldest-pane-first — sheds tuples destined for the oldest still-open
//                         panes (event time at most `pane_depth` above the
//                         watermark): the windows closest to firing lose
//                         input first, the freshest data survives.
// Sheds are never silent: every decision increments shed()/admitted()
// counters the harness surfaces as first-class RunResult fields, and
// shedding only skips tuple emission — watermarks keep flowing, so
// downstream event-time semantics (monotonicity, firing) are unchanged.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hashing.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes {

// splitmix64 — the mixer behind every seeded shedding/jitter draw below —
// lives in core/hashing.hpp since the sharding subsystem reuses it for
// shard routing.

/// Flow health as classified by the OverloadMonitor. Ordered: comparisons
/// like `health >= kPressured` read as "at least pressured".
enum class FlowHealth : std::uint8_t { kHealthy = 0, kPressured = 1, kOverloaded = 2 };

inline const char* flow_health_name(FlowHealth h) {
  switch (h) {
    case FlowHealth::kHealthy: return "healthy";
    case FlowHealth::kPressured: return "pressured";
    case FlowHealth::kOverloaded: return "overloaded";
  }
  return "?";
}

/// Classification thresholds. Occupancy is the max depth/capacity fraction
/// over the flow's bounded channels; lag is frontier-vs-laggard watermark
/// distance in event-time ticks (0 disables lag classification).
struct OverloadThresholds {
  double pressured_occupancy{0.50};
  double overloaded_occupancy{0.90};
  Timestamp pressured_lag{0};
  Timestamp overloaded_lag{0};
};

/// One channel's gauges, sampled by the runtime. capacity == 0 marks an
/// unbounded (loop) channel, excluded from occupancy fractions.
struct ChannelGauge {
  std::size_t depth{0};
  std::size_t capacity{0};
  std::uint64_t stall_ns{0};   ///< producer wall time spent blocked, total
  std::size_t high_water{0};   ///< max depth ever observed by the producer
};

/// Per-flow overload classifier. observe() runs on the runtime's watchdog
/// thread; every accessor is safe from any thread.
class OverloadMonitor {
 public:
  explicit OverloadMonitor(OverloadThresholds t = {}) : thresholds_(t) {}

  const OverloadThresholds& thresholds() const { return thresholds_; }

  /// Classifies one sample. `frontier` is the max node watermark (the
  /// sources' position), `laggard` the min over consumer nodes that have
  /// watermark bookkeeping (kMinTimestamp when none do yet).
  void observe(const std::vector<ChannelGauge>& gauges, Timestamp frontier,
               Timestamp laggard) {
    double occ = 0;
    std::uint64_t stall = 0;
    for (const ChannelGauge& g : gauges) {
      stall += g.stall_ns;
      if (g.capacity == 0) continue;
      const double f = static_cast<double>(g.depth) /
                       static_cast<double>(g.capacity);
      const double hw = static_cast<double>(g.high_water) /
                        static_cast<double>(g.capacity);
      if (f > occ) occ = f;
      if (hw > peak_occupancy_.load(std::memory_order_relaxed)) {
        peak_occupancy_.store(hw, std::memory_order_relaxed);
      }
    }
    Timestamp lag = 0;
    if (laggard != kMinTimestamp && frontier > laggard) {
      lag = frontier - laggard;
    }
    if (lag > peak_lag_.load(std::memory_order_relaxed)) {
      peak_lag_.store(lag, std::memory_order_relaxed);
    }
    total_stall_ns_.store(stall, std::memory_order_relaxed);

    FlowHealth h = FlowHealth::kHealthy;
    if (occ >= thresholds_.overloaded_occupancy ||
        (thresholds_.overloaded_lag > 0 && lag >= thresholds_.overloaded_lag)) {
      h = FlowHealth::kOverloaded;
    } else if (occ >= thresholds_.pressured_occupancy ||
               (thresholds_.pressured_lag > 0 &&
                lag >= thresholds_.pressured_lag)) {
      h = FlowHealth::kPressured;
    }
    if (h != health_.load(std::memory_order_relaxed)) {
      transitions_.fetch_add(1, std::memory_order_relaxed);
      health_.store(h, std::memory_order_relaxed);
    }
    if (h > worst_.load(std::memory_order_relaxed)) {
      worst_.store(h, std::memory_order_relaxed);
    }
    samples_.fetch_add(1, std::memory_order_relaxed);
    samples_in_[static_cast<std::size_t>(h)].fetch_add(
        1, std::memory_order_relaxed);
  }

  FlowHealth health() const { return health_.load(std::memory_order_relaxed); }
  /// Worst health ever observed (what a run summary reports).
  FlowHealth worst() const { return worst_.load(std::memory_order_relaxed); }

  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }
  std::uint64_t samples_in(FlowHealth h) const {
    return samples_in_[static_cast<std::size_t>(h)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }
  double peak_occupancy_fraction() const {
    return peak_occupancy_.load(std::memory_order_relaxed);
  }
  Timestamp peak_watermark_lag() const {
    return peak_lag_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_stall_ns() const {
    return total_stall_ns_.load(std::memory_order_relaxed);
  }

 private:
  OverloadThresholds thresholds_;
  std::atomic<FlowHealth> health_{FlowHealth::kHealthy};
  std::atomic<FlowHealth> worst_{FlowHealth::kHealthy};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> samples_in_[3]{};
  std::atomic<std::uint64_t> transitions_{0};
  std::atomic<double> peak_occupancy_{0};
  std::atomic<Timestamp> peak_lag_{0};
  std::atomic<std::uint64_t> total_stall_ns_{0};
};

enum class ShedPolicy : std::uint8_t {
  kNone = 0,
  kRandomP = 1,
  kPerKeyFair = 2,
  kOldestPaneFirst = 3,
};

inline const char* shed_policy_name(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kNone: return "none";
    case ShedPolicy::kRandomP: return "random-p";
    case ShedPolicy::kPerKeyFair: return "per-key-fair";
    case ShedPolicy::kOldestPaneFirst: return "oldest-pane-first";
  }
  return "?";
}

struct ShedConfig {
  ShedPolicy policy{ShedPolicy::kNone};
  /// Shed probabilities per health state (healthy is always 0).
  double p_pressured{0.10};
  double p_overloaded{0.50};
  std::uint64_t seed{1};
  /// per-key-fair: width (event-time ticks) of one victim-rotation epoch.
  Timestamp fair_epoch{1000};
  /// oldest-pane-first: tuples with ts <= watermark + pane_depth are shed
  /// when overloaded (pressured sheds only ts <= watermark).
  Timestamp pane_depth{0};
};

/// Admission-edge shed decision maker. decide()/admit() are meant to be
/// called from one producer thread (the generator advances a private
/// deterministic state); the counters are atomic so the harness can read
/// them from another thread after — or during — the run.
class Shedder {
 public:
  explicit Shedder(ShedConfig cfg, const OverloadMonitor* monitor = nullptr)
      : cfg_(cfg),
        monitor_(monitor),
        rng_state_(splitmix64(cfg.seed ^ 0x5bd1e995u)) {}

  const ShedConfig& config() const { return cfg_; }

  /// Admission decision against the monitor's current health (healthy when
  /// no monitor is attached). Returns false — and counts a shed — when the
  /// tuple should be dropped at this edge. `w` is the caller's current
  /// watermark (kMinTimestamp when it has none yet).
  bool admit(std::uint64_t key_hash, Timestamp ts,
             Timestamp w = kMinTimestamp) {
    return admit(monitor_ != nullptr ? monitor_->health()
                                     : FlowHealth::kHealthy,
                 key_hash, ts, w);
  }

  bool admit(FlowHealth h, std::uint64_t key_hash, Timestamp ts,
             Timestamp w = kMinTimestamp) {
    bool drop = false;
    switch (cfg_.policy) {
      case ShedPolicy::kNone:
        break;
      case ShedPolicy::kRandomP: {
        const double p = p_of(h);
        if (p > 0) drop = next_fraction() < p;
        break;
      }
      case ShedPolicy::kPerKeyFair: {
        const double p = p_of(h);
        if (p > 0) {
          const Timestamp epoch =
              cfg_.fair_epoch > 0 ? floor_div(ts, cfg_.fair_epoch) : 0;
          const std::uint64_t mixed = splitmix64(
              key_hash ^ splitmix64(static_cast<std::uint64_t>(epoch) ^
                                    cfg_.seed));
          drop = fraction_of(mixed) < p;
        }
        break;
      }
      case ShedPolicy::kOldestPaneFirst: {
        if (h != FlowHealth::kHealthy && w != kMinTimestamp) {
          const Timestamp depth =
              h == FlowHealth::kOverloaded ? cfg_.pane_depth : 0;
          drop = ts <= w + depth;
        }
        break;
      }
    }
    if (drop) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      // Like the rng, the per-key map is producer-thread state: admit()
      // is called from the one source thread this shedder gates, so a
      // plain map is safe; readers consume it after the run.
      ++shed_by_key_[key_hash];
    } else {
      admitted_.fetch_add(1, std::memory_order_relaxed);
    }
    return !drop;
  }

  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }

  /// Tuples shed per key hash (post-run accounting; see admit()).
  const std::unordered_map<std::uint64_t, std::uint64_t>& shed_by_key()
      const {
    return shed_by_key_;
  }

  /// Attributes an already-counted shed decision to query `query`. A
  /// multi-query lattice stores each tuple once, so one admit() refusal is
  /// a loss for *every* query whose instance set contained the tuple; the
  /// lattice calls this once per affected query so per-query accounting
  /// does not mis-attribute flow-global drops. Producer-thread state, like
  /// shed_by_key_ (see admit()); readers consume it after the run.
  void attribute_query(int query, std::uint64_t n = 1) {
    shed_by_query_[query] += n;
  }

  /// Tuples shed per registered query (keyed by query index, ordered so
  /// reports are deterministic). Only populated by multi-query callers.
  const std::map<int, std::uint64_t>& shed_by_query() const {
    return shed_by_query_;
  }

  std::uint64_t shed_for_query(int query) const {
    auto it = shed_by_query_.find(query);
    return it == shed_by_query_.end() ? 0 : it->second;
  }

  /// The k heaviest-shed keys as (key hash, shed count), descending by
  /// count with key hash as the tie-break so reports are deterministic.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> top_shed_keys(
      std::size_t k) const {
    return rank_shed_keys(shed_by_key_, k);
  }

  static std::vector<std::pair<std::uint64_t, std::uint64_t>>
  rank_shed_keys(const std::unordered_map<std::uint64_t, std::uint64_t>& m,
                 std::size_t k) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> v(m.begin(),
                                                           m.end());
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (v.size() > k) v.resize(k);
    return v;
  }

 private:
  double p_of(FlowHealth h) const {
    switch (h) {
      case FlowHealth::kHealthy: return 0;
      case FlowHealth::kPressured: return cfg_.p_pressured;
      case FlowHealth::kOverloaded: return cfg_.p_overloaded;
    }
    return 0;
  }

  static double fraction_of(std::uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  double next_fraction() {
    rng_state_ += 0x9e3779b97f4a7c15ULL;
    return fraction_of(splitmix64(rng_state_));
  }

  ShedConfig cfg_;
  const OverloadMonitor* monitor_;
  std::uint64_t rng_state_;
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::unordered_map<std::uint64_t, std::uint64_t> shed_by_key_;
  std::map<int, std::uint64_t> shed_by_query_;
};

}  // namespace aggspes
