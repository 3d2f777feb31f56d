// Shared machinery of the end-to-end benchmark: open-loop phases on the
// thread-per-node runtime, single-threaded reference replays, the output
// check, and the per-node ledger of the traced run.
//
// Everything here drives the engine through its public API. Per-layer
// timing comes from outside the engine: spans around the user closures
// handed to the operators (generator, f_FM, f_K, f_P), spans around every
// delivery into a node (a forwarding Consumer between channel and node),
// and the runtime's own channel gauges.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#include <cxxabi.h>

#include "core/graph.hpp"
#include "core/runtime/metrics.hpp"
#include "core/runtime/rate_source.hpp"
#include "core/runtime/spsc_queue.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "trace.hpp"

namespace pb {

using aggspes::Consumer;
using aggspes::EdgeKind;
using aggspes::Element;
using aggspes::NodeBase;
using aggspes::now_ns;
using aggspes::Outlet;
using aggspes::Timestamp;
using aggspes::Tuple;

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Linear-interpolated quantile (the definition numpy and Python's
/// statistics module use for "inclusive" quantiles).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Keeps a computed value alive so a timed loop cannot be optimized out.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  std::uint64_t samples{0};
  std::string note;
};

struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  ///< human-readable detail (ledger, checks)

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string note = "") {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, std::move(note)});
  }
  void line(std::string s) { lines.push_back(std::move(s)); }
};

// ---------------------------------------------------------------------
// The open-loop schedule (RateSource's, reproduced for the replay)
// ---------------------------------------------------------------------

struct Schedule {
  double rate{1000};  ///< per source
  double duration_s{1};
  Timestamp ticks_per_s{1000};
  Timestamp wm_period{100};
  Timestamp flush_horizon{2000};
  double overrun_factor{1.5};

  aggspes::RateSourceConfig config() const {
    return {.rate = rate,
            .duration_s = duration_s,
            .ticks_per_s = ticks_per_s,
            .wm_period = wm_period,
            .flush_horizon = flush_horizon,
            .overrun_factor = overrun_factor};
  }
  std::uint64_t total() const {
    return static_cast<std::uint64_t>(rate * duration_s);
  }
  /// Scheduled send time of tuple i relative to the source's start (the
  /// same arithmetic as RateSource::pump, so the replay is exact).
  std::uint64_t sched_ns(std::uint64_t i) const {
    return static_cast<std::uint64_t>(static_cast<double>(i) / rate * 1e9);
  }
  Timestamp ts_of(std::uint64_t i) const {
    return static_cast<Timestamp>(static_cast<double>(sched_ns(i)) / 1e9 *
                                  static_cast<double>(ticks_per_s));
  }
  Timestamp flush_to() const {
    return static_cast<Timestamp>(duration_s *
                                  static_cast<double>(ticks_per_s)) +
           flush_horizon;
  }
};

/// Replay source for the single-threaded reference: emits exactly the
/// element sequence a RateSource with the same schedule emitted for its
/// first `n` tuples (watermarks, tuples, flush, end), on demand, so the
/// caller can drain the flow between steps and memory stays bounded.
template <typename T>
class Feeder final : public NodeBase {
 public:
  Feeder(Schedule s, std::function<T(std::uint64_t)> gen, std::uint64_t n)
      : s_(s), gen_(std::move(gen)), n_(n), next_wm_(s.wm_period) {}

  Outlet<T>& out() { return out_; }
  bool done() const { return done_; }

  void step(std::uint64_t max_tuples) {
    if (done_) return;
    const std::uint64_t stop = std::min(n_, next_ + max_tuples);
    for (; next_ < stop; ++next_) {
      const Timestamp ts = s_.ts_of(next_);
      while (ts >= next_wm_) {
        out_.push_watermark(next_wm_);
        next_wm_ += s_.wm_period;
      }
      out_.push_tuple(Tuple<T>{ts, 0, gen_(next_)});
    }
    if (next_ == n_) {
      const Timestamp flush_to = s_.flush_to();
      while (next_wm_ < flush_to) {
        out_.push_watermark(next_wm_);
        next_wm_ += s_.wm_period;
      }
      out_.push_watermark(flush_to);
      out_.push_end();
      done_ = true;
    }
  }

 private:
  Schedule s_;
  std::function<T(std::uint64_t)> gen_;
  std::uint64_t n_;
  std::uint64_t next_{0};
  Timestamp next_wm_;
  bool done_{false};
  Outlet<T> out_;
};

// ---------------------------------------------------------------------
// Egress: latency samples plus an order-free digest of every output
// ---------------------------------------------------------------------

template <typename T>
class CheckedSink final : public NodeBase {
 public:
  using HashFn = std::uint64_t (*)(const T&);
  struct Sample {
    std::uint64_t arrival_ns;
    std::uint64_t stamp;
  };

  CheckedSink(HashFn hash, bool keep_latency)
      : hash_(hash),
        keep_latency_(keep_latency),
        port_([this](const Element<T>& e) {
                if (const auto* t = std::get_if<Tuple<T>>(&e)) {
                  take(t, 1);
                }
              },
              [this](const Tuple<T>* ts, std::size_t n) { take(ts, n); }) {}

  Consumer<T>& in() { return port_; }
  const std::vector<Sample>& samples() const { return samples_; }
  std::vector<std::uint64_t>& hashes() { return hashes_; }

 private:
  void take(const Tuple<T>* ts, std::size_t n) {
    const std::uint64_t arrival = keep_latency_ ? now_ns() : 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (keep_latency_) samples_.push_back({arrival, ts[i].stamp});
      hashes_.push_back(
          mix64(hash_(ts[i].value) ^
                mix64(static_cast<std::uint64_t>(ts[i].ts))));
    }
  }

  HashFn hash_;
  bool keep_latency_;
  aggspes::Port<T> port_;
  std::vector<Sample> samples_;
  std::vector<std::uint64_t> hashes_;
};

/// Size of the multiset symmetric difference of two sorted hash vectors:
/// the number of outputs that one side has and the other lacks.
inline std::uint64_t mismatches(const std::vector<std::uint64_t>& a,
                                const std::vector<std::uint64_t>& b) {
  std::uint64_t diff = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++diff;
      ++i;
    } else {
      ++diff;
      ++j;
    }
  }
  return diff + (a.size() - i) + (b.size() - j);
}

// ---------------------------------------------------------------------
// Wiring: records the topology composites build, and in traced runs puts
// a timing Consumer in front of every node input
// ---------------------------------------------------------------------

/// Forwards deliveries to the node's real input, inside one span per
/// delivery (a block of tuples or one control element).
template <typename T>
class TimedConsumer final : public Consumer<T> {
 public:
  TimedConsumer(Consumer<T>& target, int span) : target_(target), span_(span) {}
  void receive(const Element<T>& e) override {
    trace::Scope s(span_, aggspes::is_tuple(e) ? 1 : 0);
    target_.receive(e);
  }
  void receive_block(const Tuple<T>* ts, std::size_t n) override {
    trace::Scope s(span_, n);
    target_.receive_block(ts, n);
  }

 private:
  Consumer<T>& target_;
  int span_;
};

/// "aggspes::swa::MonoidAggregateOp<long, ...>" -> "MonoidAggregateOp".
inline std::string short_type_name(const char* mangled) {
  int status = 0;
  char* d = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  std::string name = status == 0 && d != nullptr ? d : mangled;
  std::free(d);
  const std::size_t lt = name.find('<');
  if (lt != std::string::npos) name.resize(lt);
  const std::size_t colon = name.rfind("::");
  if (colon != std::string::npos) name = name.substr(colon + 2);
  return name;
}

/// The layer a node's own code belongs to (the ledger's attribution of a
/// node span's self time).
inline std::string layer_of(const std::string& type) {
  if (type == "RateSource" || type == "Feeder" || type == "CheckedSink") {
    return "runtime";
  }
  if (type == "FlatMapOp" || type == "JoinOp") return "operators";
  if (type == "MonoidAggregateOp" || type == "MultiQueryMonoidOp") {
    return "swa";
  }
  return "aggbased";  // Embed, C2/C3 guards, Unfold aggregates, A+ nodes
}

struct NodeInfo {
  std::string name;
  std::string type;
  int span{-1};
};

struct EdgeInfo {
  std::size_t from;
  std::size_t to;
};

template <typename FlowT>
class Wiring {
 public:
  Wiring(FlowT& flow, bool timed, std::string prefix)
      : flow_(flow), timed_(timed), prefix_(std::move(prefix)) {}

  template <typename Node, typename... Args>
  Node& add(Args&&... args) {
    Node& n = flow_.template add<Node>(std::forward<Args>(args)...);
    const std::string type = short_type_name(typeid(Node).name());
    index_[&n] = nodes_.size();
    NodeInfo info;
    info.type = type;
    info.name = std::to_string(nodes_.size()) + ":" + type;
    if (timed_) info.span = trace::Registry::get().id(prefix_ + info.name);
    nodes_.push_back(std::move(info));
    return n;
  }

  template <typename T>
  void connect(NodeBase& from_node, Outlet<T>& from, NodeBase& to_node,
               Consumer<T>& to, EdgeKind kind = EdgeKind::kNormal) {
    const std::size_t a = index_.at(&from_node);
    const std::size_t b = index_.at(&to_node);
    Consumer<T>* target = &to;
    if (timed_) {
      auto proxy = std::make_shared<TimedConsumer<T>>(to, nodes_[b].span);
      target = proxy.get();
      keep_.push_back(std::move(proxy));
    }
    flow_.connect(from_node, from, to_node, *target, kind);
    edges_.push_back({a, b});
  }

  const std::vector<NodeInfo>& nodes() const { return nodes_; }
  const std::vector<EdgeInfo>& edges() const { return edges_; }

 private:
  FlowT& flow_;
  bool timed_;
  std::string prefix_;
  std::vector<NodeInfo> nodes_;
  std::vector<EdgeInfo> edges_;
  std::unordered_map<const NodeBase*, std::size_t> index_;
  std::vector<std::shared_ptr<void>> keep_;
};

// ---------------------------------------------------------------------
// Post-run readers a pipeline's wiring hands back
// ---------------------------------------------------------------------

struct Probe {
  std::function<std::uint64_t()> peak_stored;
  std::function<std::uint64_t()> peak_panes;
  std::function<std::uint64_t()> loop_hops;  ///< Unfold A1 fired instances
};

/// Counters the user closures of one pipeline bump (traced runs only; the
/// untraced pipeline gets the bare closures).
struct UdfCounters {
  std::atomic<std::uint64_t> calls{0};        ///< f_FM / f_K calls
  std::atomic<std::uint64_t> comparisons{0};  ///< f_P calls (joins)
};

/// Closure wrapper of the traced run: counts every call and times one in
/// `every` in a span that stands for `every` calls.
template <typename R, typename... A>
std::function<R(A...)> traced_fn(std::function<R(A...)> f, int span,
                                 std::atomic<std::uint64_t>* calls,
                                 std::uint64_t every) {
  return [f = std::move(f), span, calls, every](A... a) -> R {
    if (calls->fetch_add(1, std::memory_order_relaxed) % every != 0) {
      return f(a...);
    }
    trace::Scope s(span, 1, every);
    return f(a...);
  };
}

// ---------------------------------------------------------------------
// Small thread pool for the reference replays (after the timed phases)
// ---------------------------------------------------------------------

inline void run_parallel(std::vector<std::function<void()>> tasks,
                         unsigned workers) {
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::string err;
  auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= tasks.size()) return;
      try {
        tasks[i]();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(err_mu);
        err = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned n = std::max(1u, std::min<unsigned>(
                                      workers, static_cast<unsigned>(tasks.size())));
  for (unsigned i = 0; i < n; ++i) pool.emplace_back(body);
  for (auto& t : pool) t.join();
  if (!err.empty()) throw std::runtime_error(err);
}

}  // namespace pb
