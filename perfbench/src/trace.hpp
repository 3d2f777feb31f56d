// Span tracing for the traced benchmark run.
//
// A span has a name, a start, an end and a parent (the span open on the
// same thread when it began). A span's self time is its duration minus the
// part of that interval its child spans cover. Spans are aggregated by name
// in memory (count, items, total and self ns) on the thread that records
// them, and merged when the traced phase has ended. Recording is off unless
// set_enabled(true); a disabled Scope costs one relaxed load. A span may
// stand for `weight` calls when only one call in `weight` is timed (user
// closures of a few ns, where two clock reads would dwarf the call): its
// duration then counts `weight` times.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/runtime/metrics.hpp"

namespace pb::trace {

struct Stat {
  std::uint64_t count{0};     ///< spans recorded
  std::uint64_t items{0};     ///< tuples the spans covered (blocks > 1)
  std::uint64_t total_ns{0};  ///< summed span durations
  std::uint64_t self_ns{0};   ///< durations minus child coverage
};

/// One thread's aggregate: stats indexed by span id, plus the open-span
/// stack that turns child durations into the parent's covered time.
struct ThreadLog {
  struct Frame {
    int id;
    std::uint64_t items;
    std::uint64_t weight;
    std::uint64_t start;
    std::uint64_t child_ns;
  };
  std::vector<Stat> stats;
  std::vector<Frame> stack;

  void begin(int id, std::uint64_t items, std::uint64_t at,
             std::uint64_t weight = 1) {
    stack.push_back({id, items, weight, at, 0});
  }

  /// What an empty span measures (the clock read between its two reads);
  /// subtracted from every span so the closure, not the clock, is timed.
  std::uint64_t clock_ns{0};

  void end(std::uint64_t at) {
    const Frame f = stack.back();
    stack.pop_back();
    const std::uint64_t raw = at > f.start ? at - f.start : 0;
    const std::uint64_t dur = (raw > clock_ns ? raw - clock_ns : 0) * f.weight;
    if (stats.size() <= static_cast<std::size_t>(f.id)) {
      stats.resize(static_cast<std::size_t>(f.id) + 1);
    }
    Stat& s = stats[static_cast<std::size_t>(f.id)];
    s.count += f.weight;
    s.items += f.items * f.weight;
    s.total_ns += dur;
    // Scaled children of one span may exceed it; the sum over spans stays
    // unbiased, so add modulo 2^64 instead of clipping at zero.
    s.self_ns += dur - f.child_ns;
    if (!stack.empty()) stack.back().child_ns += dur;
  }
};

class Registry {
 public:
  static Registry& get() {
    static Registry r;
    return r;
  }

  int id(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.push_back(name);
    return static_cast<int>(names_.size() - 1);
  }

  ThreadLog& local() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      auto owned = std::make_shared<ThreadLog>();
      owned->clock_ns = clock_ns_;
      log = owned.get();
      std::lock_guard<std::mutex> lk(mu_);
      logs_.push_back(std::move(owned));
    }
    return *log;
  }

  /// Per-thread stats recorded since the last drain, keyed by span name,
  /// one map per thread that recorded anything; clears every log. Call
  /// only while no traced thread runs.
  std::vector<std::map<std::string, Stat>> drain() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::map<std::string, Stat>> out;
    for (auto& log : logs_) {
      std::map<std::string, Stat> m;
      for (std::size_t i = 0; i < log->stats.size(); ++i) {
        if (log->stats[i].count > 0) m[names_[i]] = log->stats[i];
      }
      log->stats.clear();
      log->stack.clear();
      if (!m.empty()) out.push_back(std::move(m));
    }
    return out;
  }

  std::atomic<bool> enabled{false};

 private:
  Registry() {
    std::vector<std::uint64_t> d;
    for (int i = 0; i < 4001; ++i) {
      const std::uint64_t a = aggspes::now_ns();
      d.push_back(aggspes::now_ns() - a);
    }
    std::nth_element(d.begin(), d.begin() + 2000, d.end());
    clock_ns_ = d[2000];
  }

  std::uint64_t clock_ns_{0};
  std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::shared_ptr<ThreadLog>> logs_;
};

/// A self time read as signed: with sampled children a single thread's sum
/// may dip below zero.
inline double self_ns(const Stat& s) {
  return static_cast<double>(static_cast<std::int64_t>(s.self_ns));
}

inline void set_enabled(bool on) {
  Registry::get().enabled.store(on, std::memory_order_relaxed);
}

inline bool enabled() {
  return Registry::get().enabled.load(std::memory_order_relaxed);
}

/// RAII span on the calling thread.
class Scope {
 public:
  explicit Scope(int id, std::uint64_t items = 1, std::uint64_t weight = 1) {
    if (!enabled()) return;
    log_ = &Registry::get().local();
    log_->begin(id, items, aggspes::now_ns(), weight);
  }
  ~Scope() {
    if (log_ != nullptr) log_->end(aggspes::now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadLog* log_{nullptr};
};

/// An explicitly timed span of a recorded trace (parent = index into the
/// same vector, -1 for a root).
struct Span {
  std::string name;
  std::uint64_t start;
  std::uint64_t end;
  int parent;
};

/// Self-time arithmetic over a recorded trace: each span's duration minus
/// the union of its children's intervals clipped to the span. Children
/// may overlap each other (spans from a parallel section); the covered
/// time is counted once.
inline std::map<std::string, Stat> aggregate(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    const std::uint64_t dur = s.end > s.start ? s.end - s.start : 0;
    Stat& st = out[s.name];
    ++st.count;
    ++st.items;
    st.total_ns += dur;
    st.self_ns += dur - std::min(dur, covered);
  }
  return out;
}

}  // namespace pb::trace
