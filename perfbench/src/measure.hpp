// Runs one workload end to end (untraced: the end-to-end metrics) or as the
// traced run (the per-layer metrics), checks every phase's output against
// its single-threaded replay, and fills a Report.
#pragma once

#include <cmath>

#include "engine.hpp"

namespace pb {

/// Share of a run's measured seconds spent at the load point; the rest is
/// saturation. Each round gives each of the three variants a load-point
/// and a saturation phase. The traced run has one round, with phases as
/// long as kTracedRounds rounds would give.
inline constexpr double kLoadShare = 0.4;
inline constexpr int kRounds = 5;
inline constexpr int kTracedRounds = 3;

inline double load_seconds(double run_s, int rounds) {
  return run_s * kLoadShare / (3 * rounds);
}
inline double sat_seconds(double run_s, int rounds) {
  return run_s * (1 - kLoadShare) / (3 * rounds);
}

/// The second best of a run's per-round values. Other load on a shared
/// host only ever slows a round down, so the best rounds are the
/// repeatable ones; the second best also ignores one lucky round.
inline double second_best(std::vector<double> v, bool higher_is_better) {
  std::sort(v.begin(), v.end());
  if (v.size() < 2) return v.empty() ? 0 : v[0];
  return higher_is_better ? v[v.size() - 2] : v[1];
}

/// A workload may add a cross-check of its load-point replays (default:
/// every variant's replay equals the first variant's on the same input).
template <typename WL>
concept HasDedicatedReference =
    requires(const WL& wl, int v, const Schedule& s, std::uint64_t n) {
      { wl.dedicated_reference(v, s, n) } -> std::same_as<std::vector<std::uint64_t>>;
    };

struct CheckTally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  bool correct{true};
};

/// A replay already made for a phase (the traced run times its load-point
/// replays one at a time and hands them to the check).
struct KnownReplay {
  const PhaseResult* phase;
  const ReplayResult* replay;
};

inline bool same_input(const PhaseResult& a, const PhaseResult& b) {
  return a.variant == b.variant && a.sched.rate == b.sched.rate &&
         a.sched.duration_s == b.sched.duration_s &&
         a.emitted_per_source == b.emitted_per_source;
}

/// Output check of the given phases against a replay of the same variant
/// on the same input, and of the load-point replays against each other (or
/// the workload's dedicated reference). Load points repeat across rounds
/// with the same input, so each distinct input is replayed once; replays
/// run in parallel after all timed phases.
template <typename WL>
void check_outputs(const WL& wl, const std::vector<const PhaseResult*>& phases,
                   CheckTally& tally, Report& rep,
                   const std::vector<KnownReplay>& known = {}) {
  std::vector<std::size_t> job_of(phases.size());
  std::vector<const PhaseResult*> jobs;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    std::size_t j = 0;
    while (j < jobs.size() && !same_input(*jobs[j], *phases[i])) ++j;
    if (j == jobs.size()) jobs.push_back(phases[i]);
    job_of[i] = j;
  }
  std::vector<ReplayResult> made(jobs.size());
  std::vector<const ReplayResult*> refs(jobs.size(), nullptr);
  std::vector<std::function<void()>> tasks;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const KnownReplay& k : known) {
      if (same_input(*k.phase, *jobs[j])) refs[j] = k.replay;
    }
    if (refs[j] != nullptr) continue;
    refs[j] = &made[j];
    tasks.push_back([&, j] {
      const PhaseResult& p = *jobs[j];
      made[j] = replay(wl, p.variant, p.sched, p.emitted_per_source, false);
    });
  }
  run_parallel(std::move(tasks), std::thread::hardware_concurrency());

  std::vector<bool> crossed(jobs.size(), false);
  const ReplayResult* first_ref = nullptr;
  int first_variant = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = *phases[i];
    const std::size_t j = job_of[i];
    const std::uint64_t miss = mismatches(p.hashes, refs[j]->hashes);
    const std::uint64_t unsent = p.saturation ? 0 : p.scheduled - p.emitted;
    tally.attempted += p.saturation ? p.emitted : p.scheduled;
    tally.failed += miss + unsent;
    std::string what = std::string(WL::kVariants[static_cast<std::size_t>(p.variant)]) +
                       (p.saturation ? " saturation" : " load point");
    if (miss != 0) {
      tally.correct = false;
      rep.line("CHECK FAILED " + what + ": " + std::to_string(miss) +
               " outputs differ from the single-threaded replay (" +
               std::to_string(p.hashes.size()) + " vs " +
               std::to_string(refs[j]->hashes.size()) + ")");
    }
    if (unsent != 0) {
      rep.line("LOAD POINT MISSED " + what + ": " + std::to_string(unsent) +
               " scheduled inputs never sent (overrun cutoff)");
    }
    if (p.saturation || unsent != 0 || crossed[j]) continue;
    crossed[j] = true;
    // Load point: every variant saw the same input, so the replays must
    // agree (the paper's semantic-overlap claim, checked on every run).
    std::uint64_t cross = 0;
    if constexpr (HasDedicatedReference<WL>) {
      cross = mismatches(refs[j]->hashes,
                         wl.dedicated_reference(p.variant, p.sched, p.emitted));
      what += " vs dedicated single-query runs";
    } else {
      if (first_ref == nullptr) {
        first_ref = refs[j];
        first_variant = p.variant;
      }
      cross = mismatches(refs[j]->hashes, first_ref->hashes);
      what += std::string(" vs ") + WL::kVariants[static_cast<std::size_t>(first_variant)];
    }
    if (cross != 0) {
      tally.correct = false;
      tally.failed += cross;
      rep.line("CHECK FAILED " + what + ": " + std::to_string(cross) +
               " outputs differ");
    }
  }
  std::uint64_t outputs = 0;
  for (const PhaseResult* p : phases) outputs += p->hashes.size();
  rep.line("output check: " + std::to_string(phases.size()) + " phases, " +
           std::to_string(outputs) + " outputs against " +
           std::to_string(jobs.size()) + " single-threaded replays: " +
           (tally.correct ? "all equal" : "MISMATCH"));
}

inline double stall_on_source_edges(const PhaseResult& p, bool sources) {
  double ns = 0;
  for (std::size_t e = 0; e < p.edges.size() && e < p.gauges.size(); ++e) {
    const bool from_source = p.nodes[p.edges[e].from].type == "RateSource";
    if (from_source == sources) ns += static_cast<double>(p.gauges[e].stall_ns);
  }
  return ns;
}

struct Latency {
  double p50{0};
  double p99{0};
  std::uint64_t samples{0};
  std::size_t runs{0};
  std::size_t per_run{0};
};

/// p50 and p99 of load-point latencies sorted in input order (due time
/// within the phase), cut into runs of at least kLatChunk outputs: each is
/// the median over those runs, so one scheduler hiccup moves one run, not
/// the metric.
inline Latency latency(const std::vector<std::pair<std::uint64_t, double>>& lat) {
  Latency out;
  out.samples = lat.size();
  out.runs = std::max<std::size_t>(1, lat.size() / kLatChunk);
  out.per_run = lat.size() / out.runs;
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::size_t c = 0; c < out.runs && !lat.empty(); ++c) {
    std::vector<double> ms;
    for (std::size_t k = c * lat.size() / out.runs;
         k < (c + 1) * lat.size() / out.runs; ++k) {
      ms.push_back(lat[k].second);
    }
    p50.push_back(quantile(ms, 0.5));
    p99.push_back(quantile(ms, 0.99));
  }
  out.p50 = median(p50);
  out.p99 = median(p99);
  return out;
}

template <typename WL>
void run_untraced(const WL& wl, double seconds, Report& rep) {
  // kRounds rounds, each running every variant's load point and
  // saturation phase in turn, so a noisy stretch of the host hits all
  // variants alike.
  const double load_s = load_seconds(seconds, kRounds);
  const double sat_s = sat_seconds(seconds, kRounds);
  std::vector<PhaseResult> phases;
  for (int round = 0; round < kRounds; ++round) {
    for (int v = 0; v < 3; ++v) {
      phases.push_back(run_phase(wl, v, false, load_s, false));
      phases.push_back(run_phase(wl, v, true, sat_s, false));
    }
  }
  // Every load point is checked (all rounds share one input per variant);
  // saturation phases differ in length, so the first round's stand for the
  // rest and the replays stay within the run's time budget.
  std::vector<const PhaseResult*> checked;
  std::vector<double> setups;
  const std::size_t first_round = phases.size() / kRounds;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (!phases[i].saturation || i < first_round) checked.push_back(&phases[i]);
    setups.push_back(phases[i].setup_s);
  }
  CheckTally tally;
  check_outputs(wl, checked, tally, rep);
  rep.correct = tally.correct;
  rep.attempted = tally.attempted;
  rep.failed = tally.failed;

  rep.add("setup_s", median(setups), "s", setups.size(),
          "median over every phase: generators + flow + thread spawn");
  for (int v = 0; v < 3; ++v) {
    const std::string slot = "v" + std::to_string(v + 1);
    const std::string name = WL::kVariants[static_cast<std::size_t>(v)];
    std::vector<double> tput;
    std::vector<std::pair<std::uint64_t, double>> lat;
    for (const PhaseResult& p : phases) {
      if (p.variant != v) continue;
      if (p.saturation) {
        tput.push_back(p.tput);
      } else {
        lat.insert(lat.end(), p.lat.begin(), p.lat.end());
      }
    }
    std::string rounds;
    for (double t : tput) rounds += (rounds.empty() ? "" : " ") + fmt(t, 4);
    rep.add("tput." + slot, second_best(tput, true), "1/s", tput.size(),
            name + ": inputs accepted per s over the steady saturation part, "
                   "second best of rounds [" + rounds + "], offered " +
                fmt(wl.timing.sat_rate(), 3) + " t/s");
    // Latency pools the rounds: A's latency depends on where an input falls
    // in the watermark period, which one short round samples unevenly.
    std::sort(lat.begin(), lat.end());
    const Latency l = latency(lat);
    const std::string at = name + ": load point " + fmt(wl.timing.load_rate, 3) +
                           " t/s, median over " + std::to_string(l.runs) +
                           " runs of >= " + std::to_string(l.per_run) +
                           " outputs pooled over rounds";
    rep.add("p50_ms." + slot, l.p50, "ms", l.samples, at);
    // p99 is printed but carries no bound: on a shared 4-core host the
    // tail of a spinning thread-per-node runtime moves by 2x between
    // identical runs. The traced run reports it as latency.p99_ms.
    rep.line("  p99_ms." + slot + " = " + fmt(l.p99, 6) + " ms (n=" +
             std::to_string(l.samples) + ", " + at + ")");
  }
}

template <typename WL>
void run_traced(const WL& wl, double seconds, Report& rep) {
  // One round of the untraced run's phases plus a traced saturation phase
  // per variant, then the single-threaded measurements.
  const double load_s = load_seconds(seconds, kTracedRounds);
  const double sat_s = sat_seconds(seconds, kTracedRounds);
  std::vector<PhaseResult> load(3);
  std::vector<PhaseResult> sat(3);
  std::vector<PhaseResult> traced(3);
  for (int v = 0; v < 3; ++v) {
    const auto i = static_cast<std::size_t>(v);
    load[i] = run_phase(wl, v, false, load_s, false);
    sat[i] = run_phase(wl, v, true, sat_s, false);
    traced[i] = run_phase(wl, v, true, sat_s, true);
  }

  // Single-threaded, on the workload's own stream.
  const double chan = channel_ns(wl, 0.2);
  const double gen = gen_ns(wl, wl.micro_tuples);
  const double udf = wl.udf_ns();
  std::array<double, 3> store{};
  for (int v = 0; v < 3; ++v) {
    store[static_cast<std::size_t>(v)] = wl.store_ns(v, schedule_of(wl, false, load_s),
                                                     load[0].emitted_per_source);
  }
  // Replays of the load points, one at a time so their timings are clean;
  // they double as the load-point references. A second, span-timed replay
  // breaks the single-threaded time down by node.
  std::array<double, 3> st{};
  std::vector<ReplayResult> plain(3);
  std::vector<ReplayResult> timed(3);
  std::vector<KnownReplay> known;
  for (int v = 0; v < 3; ++v) {
    const auto i = static_cast<std::size_t>(v);
    plain[i] = replay(wl, v, load[i].sched, load[i].emitted_per_source, false);
    st[i] = plain[i].seconds * 1e9 / static_cast<double>(plain[i].inputs);
    timed[i] = replay(wl, v, load[i].sched, load[i].emitted_per_source, true);
    known.push_back({&load[i], &plain[i]});
  }

  // The traced saturation phases are checked too: tracing must not change
  // what the pipeline computes.
  std::vector<const PhaseResult*> all;
  for (int v = 0; v < 3; ++v) {
    const auto i = static_cast<std::size_t>(v);
    all.push_back(&load[i]);
    all.push_back(&sat[i]);
    all.push_back(&traced[i]);
  }
  CheckTally tally;
  check_outputs(wl, all, tally, rep, known);
  rep.correct = tally.correct;
  rep.attempted = tally.attempted;
  rep.failed = tally.failed;

  rep.add("workloads.gen_ns", gen, "ns", wl.micro_tuples * WL::kSources,
          "generator, mean over the run's own stream");
  rep.add("runtime.channel_ns", chan, "ns", 0,
          "push_n + pop_n of 256-tuple blocks of the workload's payloads, "
          "per tuple, one thread");
  rep.add("operators.udf_ns", udf, "ns", wl.micro_tuples, wl.udf_note);
  for (int v = 0; v < 3; ++v) {
    const auto i = static_cast<std::size_t>(v);
    const std::string slot = ".v" + std::to_string(v + 1);
    const std::string name = WL::kVariants[i];
    const PhaseResult& l = load[i];
    const PhaseResult& s = sat[i];
    const PhaseResult& t = traced[i];
    rep.add("runtime.source_stall_share" + slot,
            stall_on_source_edges(s, true) /
                (s.emission_s * 1e9 * WL::kSources),
            "share", 0, name + ": source blocked on its full channel");
    rep.add("runtime.edge_stall_ms" + slot, stall_on_source_edges(s, false) / 1e6,
            "ms", 0, name + ": producer stall summed over the other edges");
    rep.add("runtime.source_lag_ms" + slot,
            (l.emission_s - l.sched.duration_s) * 1e3, "ms", 0,
            name + ": generation end minus scheduled end, load point");
    rep.add("runtime.cpu_cores" + slot, l.cpu_cores, "cores", 0,
            name + ": process CPU s / wall s, load point");
    rep.add("runtime.threads" + slot, static_cast<double>(l.threads), "count", 0,
            name);
    const Latency lat = latency(l.lat);
    rep.add("latency.p99_ms" + slot, lat.p99, "ms", lat.samples,
            name + ": load point p99, median over runs of >= " +
                std::to_string(lat.per_run) + " outputs (no bound: host noise)");
    rep.add("runtime.latency_samples" + slot, static_cast<double>(lat.samples),
            "count", 0, name + ": samples behind p50/p99");
    double udf_busy = 0;
    for (const auto& m : t.thread_stats) {
      double ns = 0;
      for (const auto& [span, stat] : m) {
        if (span.rfind("operators.", 0) == 0) ns += static_cast<double>(stat.total_ns);
      }
      udf_busy = std::max(udf_busy, ns / (t.wall_s * 1e9));
    }
    rep.add("operators.udf_busy_share" + slot, udf_busy, "share", 0,
            name + ": busiest thread's share inside user functions, traced "
                   "saturation");
    rep.add("operators.cmp_per_s" + slot,
            static_cast<double>(t.comparisons) / t.wall_s, "1/s", 0,
            name + ": join predicate calls per second (0: no join)");
    rep.add("swa.peak_stored" + slot, static_cast<double>(l.peak_stored), "count",
            0, name + ": window store peak tuples, load point");
    rep.add("swa.peak_panes" + slot, static_cast<double>(l.peak_panes), "count",
            0, name + ": window store peak panes, load point");
    rep.add("swa.store_ns" + slot, store[i], "ns", l.emitted,
            name + ": " + wl.store_note(v));
    rep.add("st.ns_per_tuple" + slot, st[i], "ns", l.emitted,
            name + ": whole pipeline on the single-threaded Flow, load-point "
                   "input");
    if (v > 0) {
      rep.add("st.extra_ns" + slot, st[i] - st[0], "ns", l.emitted,
              name + " minus " + WL::kVariants[0] + " single-threaded: " +
                  wl.extra_note);
    }

    const std::vector<ThreadLedger> ledger = build_ledger(t, chan);
    const std::size_t hot = saturated(ledger);
    const ThreadLedger& h = ledger[hot];
    const double share = h.wall_ns > 0 ? h.explained_ns / h.wall_ns : 0;
    rep.add("ledger.explained_share" + slot, share, "share", 0,
            name + ": saturated thread " + t.nodes[h.node].name);
    rep.add("trace.overhead_share" + slot, 1 - t.tput / s.tput, "share", 0,
            name + ": 1 - traced / untraced saturation throughput");

    rep.line("ledger " + name + " (traced saturation, " + fmt(t.tput, 4) +
             " t/s; ns per tuple each thread handled):");
    for (const ThreadLedger& tl : ledger) {
      const double per = tl.tuples > 0 ? 1.0 / static_cast<double>(tl.tuples) : 0;
      std::string row = std::string(tl.node == h.node ? "  * " : "    ") +
                        t.nodes[tl.node].name + " wall " +
                        fmt(tl.wall_ns * per, 4) + " ns:";
      for (const auto& [layer, ns] : tl.layer_ns) {
        row += " " + layer + "=" + fmt(ns * per, 3);
      }
      row += " explained=" + fmt(tl.wall_ns > 0 ? tl.explained_ns / tl.wall_ns : 0, 3);
      rep.line(row);
    }
    rep.line("  saturated thread: " + t.nodes[h.node].name +
             "; ledger gate (explained within 20% of wall): " +
             (std::abs(share - 1) <= 0.2 ? "true" : "false"));
    std::string st_row = "  single-threaded ns/tuple by node:";
    const ReplayResult& tr = timed[i];
    for (const NodeInfo& n : tr.nodes) {
      for (const auto& m : tr.thread_stats) {
        const auto it = m.find("st:" + n.name);
        if (it != m.end()) {
          st_row += " " + n.name + "=" +
                    fmt(trace::self_ns(it->second) /
                            static_cast<double>(tr.inputs), 3);
        }
      }
    }
    rep.line(st_row);
  }
  const double hops =
      load[1].emitted > 0 ? static_cast<double>(load[1].loop_hops) /
                                static_cast<double>(load[1].emitted)
                          : 0;
  rep.add("aggbased.loop_hops_per_tuple", hops, "1/tuple", load[1].emitted,
          std::string(WL::kVariants[1]) + ": Unfold A1 fired instances per input "
                                           "(0: no loop)");
  rep.add("swa.marginal_ns_per_query", wl.marginal_ns(store), "ns", 0,
          wl.marginal_note);
}

template <typename WL>
Report run_workload(const WL& wl, double seconds, bool traced) {
  Report rep;
  rep.line(std::string("variants: v1=") + WL::kVariants[0] +
           " v2=" + WL::kVariants[1] + " v3=" + WL::kVariants[2] +
           "; load point " + fmt(wl.timing.load_rate, 6) +
           " t/s, saturation offered " + fmt(wl.timing.sat_rate(), 6) + " t/s");
  if (traced) {
    run_traced(wl, seconds, rep);
  } else {
    run_untraced(wl, seconds, rep);
  }
  return rep;
}

}  // namespace pb
