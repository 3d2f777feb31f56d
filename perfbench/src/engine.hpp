// The benchmark's phases, generic over a workload definition.
//
// A workload type WL provides:
//   In, Out                      payload types of the sources and the sink
//   kName, kVariants, kSources   its name, three variant names, 1 or 2 sources
//   Timing timing                load/saturation rates and event-time clock
//   gen(side)                    the seeded generator of one source
//   hash(const Out&)             output digest
//   span_every                   traced run: time one closure call in this
//                                many (1 where a call costs microseconds)
//   build(wiring, v, sources, sink, sink_in, udf)
//                                wires variant v between sources and sink;
//                                `udf` non-null = wrap the user closures in
//                                spans and count their calls
// and, for the traced run (measure.hpp), the single-threaded measurements
// udf_ns(), store_ns(v, ...) and marginal_ns(store) with their notes.
#pragma once

#include "bench.hpp"

namespace pb {

/// Rates are totals over the workload's sources. Event time is a function
/// of the tuple index, not of the wall clock: at the load point it runs at
/// ticks_per_s ticks per wall second, and saturation offers sat_multiple
/// times the load rate with the clock sped up by the same factor. Both
/// phases therefore see the same logical stream (the same tuples per
/// window, per watermark period and per pane), and a saturation phase
/// measures the capacity of the pipeline on the load point's input.
struct Timing {
  double load_rate;
  Timestamp sat_multiple;
  Timestamp ticks_per_s;
  Timestamp wm_period;
  Timestamp flush_horizon;

  double sat_rate() const { return load_rate * static_cast<double>(sat_multiple); }
};

template <typename In>
using SourcePorts = std::vector<std::pair<NodeBase*, Outlet<In>*>>;

struct PhaseResult {
  int variant{0};
  bool saturation{false};
  Schedule sched;
  double setup_s{0};
  double wall_s{0};  ///< flow.run(), spawn to last thread exit
  std::uint64_t scheduled{0};
  std::uint64_t emitted{0};
  std::vector<std::uint64_t> emitted_per_source;
  double emission_s{0};
  double tput{0};  ///< inputs accepted per second, steady part (saturation)
  /// Load point: (input due time since start, latency ms) of every output
  /// whose inputs were due in the steady part, in input order.
  std::vector<std::pair<std::uint64_t, double>> lat;
  double cpu_cores{0};
  std::size_t threads{0};
  std::vector<aggspes::ChannelGauge> gauges;
  std::vector<NodeInfo> nodes;
  std::vector<EdgeInfo> edges;
  std::vector<std::map<std::string, trace::Stat>> thread_stats;
  std::uint64_t peak_stored{0};
  std::uint64_t peak_panes{0};
  std::uint64_t loop_hops{0};
  std::uint64_t comparisons{0};
  std::vector<std::uint64_t> hashes;  ///< sorted output digests
};

/// Share of a saturation phase that counts as steady: the source has
/// filled every channel and the run is not yet winding down.
inline constexpr double kSteadyFrom = 0.3;
inline constexpr double kSteadyTo = 0.95;
inline constexpr double kSampleEvery = 0.05;  ///< seconds between samples
inline constexpr std::size_t kLatChunk = 1000;  ///< min outputs per p99

template <typename WL>
Schedule schedule_of(const WL& wl, bool saturation, double seconds) {
  Schedule s;
  const Timestamp speed = saturation ? wl.timing.sat_multiple : 1;
  s.rate = wl.timing.load_rate * static_cast<double>(speed) / WL::kSources;
  s.duration_s = seconds;
  s.ticks_per_s = wl.timing.ticks_per_s * speed;
  s.wm_period = wl.timing.wm_period;
  s.flush_horizon = wl.timing.flush_horizon;
  // Saturation offers more than the pipeline takes; the overrun cutoff
  // ends generation at the phase length. At the load point the default
  // 1.5x overrun applies and a cutoff is a failure.
  s.overrun_factor = saturation ? 1.0 : 1.5;
  return s;
}

/// One open-loop phase of variant v on the thread-per-node runtime.
template <typename WL>
PhaseResult run_phase(const WL& wl, int v, bool saturation, double seconds,
                      bool traced) {
  using In = typename WL::In;
  using Out = typename WL::Out;
  PhaseResult r;
  r.variant = v;
  r.saturation = saturation;
  r.sched = schedule_of(wl, saturation, seconds);

  const std::uint64_t t_setup = now_ns();
  std::array<std::atomic<std::uint64_t>, 2> first{};
  aggspes::ThreadedFlow flow;
  Wiring<aggspes::ThreadedFlow> w(flow, traced, "");
  std::vector<aggspes::RateSource<In>*> srcs;
  SourcePorts<In> ports;
  for (int side = 0; side < WL::kSources; ++side) {
    std::function<In(std::uint64_t)> g = wl.gen(side);
    const int span = traced ? trace::Registry::get().id(
                                  "workloads.gen#" + std::to_string(side))
                            : -1;
    auto* first_call = &first[static_cast<std::size_t>(side)];
    const std::uint64_t every = wl.span_every;
    auto wrapped = [g = std::move(g), first_call, span,
                    every](std::uint64_t i) -> In {
      if (i == 0) first_call->store(now_ns(), std::memory_order_relaxed);
      if (span < 0 || i % every != 0) return g(i);
      trace::Scope s(span, 1, every);
      return g(i);
    };
    auto& src = w.template add<aggspes::RateSource<In>>(r.sched.config(),
                                                        std::move(wrapped));
    srcs.push_back(&src);
    ports.push_back({&src, &src.out()});
  }
  auto& sink = w.template add<CheckedSink<Out>>(&WL::hash, !saturation);
  UdfCounters udf;
  Probe probe = wl.build(w, v, ports, sink, sink.in(), traced ? &udf : nullptr);

  auto total_emitted = [&] {
    std::uint64_t n = 0;
    for (auto* s : srcs) n += s->emitted();
    return n;
  };
  std::atomic<bool> done{false};
  std::string error;
  const double cpu0 = cpu_seconds();
  if (traced) trace::set_enabled(true);
  const std::uint64_t t_run = now_ns();
  std::thread runner([&] {
    try {
      flow.run();
    } catch (const std::exception& e) {
      error = e.what();
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples;
  while (!done.load(std::memory_order_acquire)) {
    samples.push_back({now_ns(), total_emitted()});
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int>(kSampleEvery * 1e6)));
  }
  runner.join();
  const std::uint64_t t_end = now_ns();
  trace::set_enabled(false);
  const double cpu1 = cpu_seconds();
  if (!error.empty()) {
    throw std::runtime_error(std::string(WL::kName) + " " +
                             WL::kVariants[static_cast<std::size_t>(v)] +
                             ": " + error);
  }

  std::uint64_t start = 0;
  for (int side = 0; side < WL::kSources; ++side) {
    const std::uint64_t f = first[static_cast<std::size_t>(side)].load();
    if (f != 0 && (start == 0 || f < start)) start = f;
  }
  if (start == 0) start = t_run;
  r.setup_s = static_cast<double>(start - t_setup) / 1e9;
  r.wall_s = static_cast<double>(t_end - t_run) / 1e9;
  r.cpu_cores = (cpu1 - cpu0) / r.wall_s;
  r.threads = flow.node_count();
  for (auto* s : srcs) {
    r.scheduled += r.sched.total();
    r.emitted_per_source.push_back(s->emitted());
    r.emitted += s->emitted();
    r.emission_s = std::max(r.emission_s, s->emission_seconds());
  }

  // Input-side throughput at saturation: inputs accepted over the steady
  // part of the phase. A and A+ accept in bursts (their delta window
  // stores until the watermark, then fires), so the rate spans the whole
  // steady part rather than short windows.
  const auto at = [&](double frac) {
    return start + static_cast<std::uint64_t>(frac * seconds * 1e9);
  };
  const std::uint64_t lo = at(kSteadyFrom);
  const std::uint64_t hi = at(kSteadyTo);
  const auto a = std::find_if(samples.begin(), samples.end(),
                              [lo](const auto& x) { return x.first >= lo; });
  const auto b = std::find_if(samples.rbegin(), samples.rend(),
                              [hi](const auto& x) { return x.first <= hi; });
  if (a != samples.end() && b != samples.rend() && b->first > a->first) {
    r.tput = static_cast<double>(b->second - a->second) /
             (static_cast<double>(b->first - a->first) / 1e9);
  }

  // § 6.1 latency: emission minus the scheduled send time of the newest
  // contributing input, for outputs whose inputs were due in the steady
  // part of the load point; kept with the input's stamp so the caller can
  // pool rounds and split them in input order.
  if (!saturation) {
    for (const auto& s : sink.samples()) {
      if (s.stamp >= lo && s.stamp <= hi && s.arrival_ns >= s.stamp) {
        r.lat.push_back(
            {s.stamp - start, static_cast<double>(s.arrival_ns - s.stamp) / 1e6});
      }
    }
    std::sort(r.lat.begin(), r.lat.end());
  }

  r.gauges = flow.channel_gauges();
  r.nodes = w.nodes();
  r.edges = w.edges();
  if (traced) r.thread_stats = trace::Registry::get().drain();
  if (probe.peak_stored) r.peak_stored = probe.peak_stored();
  if (probe.peak_panes) r.peak_panes = probe.peak_panes();
  if (probe.loop_hops) r.loop_hops = probe.loop_hops();
  r.comparisons = udf.comparisons.load();
  r.hashes = std::move(sink.hashes());
  std::sort(r.hashes.begin(), r.hashes.end());
  return r;
}

struct ReplayResult {
  std::vector<std::uint64_t> hashes;  ///< sorted
  double seconds{0};
  std::uint64_t inputs{0};
  std::vector<NodeInfo> nodes;
  std::vector<std::map<std::string, trace::Stat>> thread_stats;
};

/// Single-threaded reference: the same variant on the deterministic Flow,
/// fed the element sequence each RateSource emitted (`n` tuples per
/// source). `timed` puts a span around every node delivery and user call.
template <typename WL>
ReplayResult replay(const WL& wl, int v, const Schedule& s,
                    const std::vector<std::uint64_t>& n, bool timed) {
  using In = typename WL::In;
  using Out = typename WL::Out;
  aggspes::Flow flow;
  Wiring<aggspes::Flow> w(flow, timed, "st:");
  std::vector<Feeder<In>*> feeders;
  SourcePorts<In> ports;
  ReplayResult r;
  for (int side = 0; side < WL::kSources; ++side) {
    auto& f = w.template add<Feeder<In>>(s, wl.gen(side),
                                         n[static_cast<std::size_t>(side)]);
    feeders.push_back(&f);
    ports.push_back({&f, &f.out()});
    r.inputs += n[static_cast<std::size_t>(side)];
  }
  auto& sink = w.template add<CheckedSink<Out>>(&WL::hash, false);
  UdfCounters udf;
  wl.build(w, v, ports, sink, sink.in(), timed ? &udf : nullptr);
  if (timed) trace::set_enabled(true);
  const std::uint64_t t0 = now_ns();
  for (bool more = true; more;) {
    more = false;
    for (auto* f : feeders) {
      f->step(512);
      more |= !f->done();
    }
    flow.drain();
  }
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  if (timed) {
    trace::set_enabled(false);
    r.thread_stats = trace::Registry::get().drain();
  }
  r.nodes = w.nodes();
  r.hashes = std::move(sink.hashes());
  std::sort(r.hashes.begin(), r.hashes.end());
  return r;
}

// ---------------------------------------------------------------------
// Ledger of a traced saturation phase
// ---------------------------------------------------------------------

struct ThreadLedger {
  std::size_t node{0};
  double wall_ns{0};
  std::uint64_t tuples{0};
  std::map<std::string, double> layer_ns;  ///< self time by layer, whole run
  double explained_ns{0};
  double working_ns{0};  ///< explained time not spent blocked on a full edge
};

/// Attributes each node thread's time to layers. A node's span covers its
/// deliveries; its self time goes to the node's layer, its child spans to
/// theirs (user functions -> operators.udf, generators -> workloads.gen), and the
/// stall on its full output edges (runtime gauges) to runtime.stall. The
/// pop side of a channel runs outside any span, so it is estimated from
/// runtime.channel_ns. A source has no deliveries: its thread runs for
/// the emission time, of which generator spans, output stall and the
/// estimated push are explained.
inline std::vector<ThreadLedger> build_ledger(const PhaseResult& p,
                                              double channel_ns) {
  std::vector<ThreadLedger> out;
  const std::size_t n_nodes = p.nodes.size();
  std::vector<double> out_stall(n_nodes, 0);
  for (std::size_t e = 0; e < p.edges.size() && e < p.gauges.size(); ++e) {
    out_stall[p.edges[e].from] += static_cast<double>(p.gauges[e].stall_ns);
  }
  // Which drained thread log belongs to which node: the one holding the
  // node's delivery span (or, for a source, its generator span).
  std::vector<const std::map<std::string, trace::Stat>*> log_of(n_nodes,
                                                                 nullptr);
  int source_side = 0;
  for (std::size_t k = 0; k < n_nodes; ++k) {
    const bool is_source = p.nodes[k].type == "RateSource";
    const std::string key =
        is_source ? "workloads.gen#" + std::to_string(source_side++)
                  : p.nodes[k].name;
    for (const auto& m : p.thread_stats) {
      if (m.count(key) != 0) log_of[k] = &m;
    }
  }
  for (std::size_t k = 0; k < n_nodes; ++k) {
    ThreadLedger t;
    t.node = k;
    t.wall_ns = p.wall_s * 1e9;
    const auto* m = log_of[k];
    const bool is_source = p.nodes[k].type == "RateSource";
    if (is_source) {
      t.wall_ns = p.emission_s * 1e9;
      std::uint64_t emitted = 0;
      double gen = 0;
      if (m != nullptr) {
        for (const auto& [name, st] : *m) {
          if (name.rfind("workloads.gen", 0) == 0) {
            gen += trace::self_ns(st);
            emitted += st.count;
          }
        }
      }
      t.tuples = emitted;
      t.layer_ns["workloads.gen"] = gen;
      t.layer_ns["runtime.stall"] = out_stall[k];
      t.layer_ns["runtime.channel"] = channel_ns / 2 * static_cast<double>(emitted);
    } else if (m != nullptr) {
      const auto it = m->find(p.nodes[k].name);
      const trace::Stat node = it != m->end() ? it->second : trace::Stat{};
      t.tuples = node.items;
      for (const auto& [name, st] : *m) {
        if (name == p.nodes[k].name) continue;
        // "operators.udf.f_p" -> "operators.udf": user code apart from
        // the operator code around it.
        t.layer_ns[name.substr(0, name.rfind('.'))] += trace::self_ns(st);
      }
      // Stall happens inside the node's pushes, i.e. inside its span.
      const double self = trace::self_ns(node) - out_stall[k];
      t.layer_ns[layer_of(p.nodes[k].type)] += std::max(0.0, self);
      t.layer_ns["runtime.stall"] = out_stall[k];
      t.layer_ns["runtime.channel"] +=
          channel_ns / 2 * static_cast<double>(node.items);
    }
    for (const auto& [layer, ns] : t.layer_ns) t.explained_ns += ns;
    // A source never idles at saturation: all of its time not blocked on
    // its full channel is work, explained or not.
    t.working_ns = (is_source ? t.wall_ns : t.explained_ns) -
                   t.layer_ns["runtime.stall"];
    out.push_back(std::move(t));
  }
  return out;
}

/// The saturated thread: the node whose working (non-blocked) time is the
/// largest share of its wall time.
inline std::size_t saturated(const std::vector<ThreadLedger>& ledger) {
  std::size_t best = 0;
  double best_share = -1;
  for (std::size_t k = 0; k < ledger.size(); ++k) {
    const double share = ledger[k].wall_ns > 0
                             ? ledger[k].working_ns / ledger[k].wall_ns
                             : 0;
    if (share > best_share) {
      best_share = share;
      best = k;
    }
  }
  return best;
}

inline std::string fmt(double v, int prec = 4) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", prec, v);
  return buf;
}

// ---------------------------------------------------------------------
// Single-threaded micro measurements on the workload's own stream
// ---------------------------------------------------------------------

/// Mean generator ns per tuple over the first `n` tuples of each source.
template <typename WL>
double gen_ns(const WL& wl, std::uint64_t n) {
  double total = 0;
  std::uint64_t count = 0;
  for (int side = 0; side < WL::kSources; ++side) {
    auto g = wl.gen(side);
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename WL::In v = g(i);
      keep(v);
    }
    total += static_cast<double>(now_ns() - t0);
    count += n;
  }
  return total / static_cast<double>(count);
}

/// Single-threaded push_n + pop_n of 256-tuple blocks of the workload's
/// own payloads through an SpscQueue of Elements (the channel's queue),
/// per tuple; each round copies a block in (the producer side's copy into
/// its scratch) and moves it out.
template <typename WL>
double channel_ns(const WL& wl, double budget_s) {
  using In = typename WL::In;
  constexpr std::size_t kBlock = aggspes::kElementBlockCapacity;
  auto g = wl.gen(0);
  std::vector<Element<In>> pristine;
  for (std::size_t i = 0; i < kBlock * 4; ++i) {
    pristine.push_back(Tuple<In>{static_cast<Timestamp>(i), 0, g(i)});
  }
  aggspes::SpscQueue<Element<In>> q(aggspes::ThreadedFlow::kDefaultCapacity);
  std::vector<Element<In>> scratch(kBlock);
  std::vector<Element<In>> popped(kBlock);
  std::uint64_t tuples = 0;
  const std::uint64_t t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(budget_s * 1e9);
  std::uint64_t elapsed = 0;
  for (std::size_t round = 0; elapsed < budget; ++round) {
    const std::size_t off = (round % 4) * kBlock;
    std::copy(pristine.begin() + static_cast<std::ptrdiff_t>(off),
              pristine.begin() + static_cast<std::ptrdiff_t>(off + kBlock),
              scratch.begin());
    std::size_t pushed = q.push_n(scratch.data(), kBlock);
    std::size_t got = q.pop_n(popped.data(), kBlock);
    tuples += std::min(pushed, got);
    if ((round & 63) == 0) elapsed = now_ns() - t0;
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(tuples);
}

}  // namespace pb
