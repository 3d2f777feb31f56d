// fm-ahf: Table 1 AHF (most frequent word of each of the three fields of a
// synthetic wiki edit, one output per input) as D, A and A+ on the sliced
// window backend — the paper's Figs 6-8.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/flatmap.hpp"
#include "core/operators/stateless.hpp"
#include "core/swa/sliced_machine.hpp"
#include "engine.hpp"
#include "workloads/wiki.hpp"

namespace pb {

struct FmAhf {
  using In = aggspes::wiki::WikiEdit;
  using Out = std::string;
  static constexpr const char* kName = "fm-ahf";
  static constexpr std::array<const char*, 3> kVariants{"D", "A", "Aplus"};
  static constexpr int kSources = 1;

  std::uint64_t seed;
  Timing timing{.load_rate = 15000,
                .sat_multiple = 8,
                .ticks_per_s = 1000,
                .wm_period = 100,
                .flush_horizon = 3 * 100 + 10};
  std::uint64_t micro_tuples{20000};
  std::uint64_t span_every{1};
  std::string udf_note{"f_FM per input over the stream (3 x most frequent word); "
                       "BM_Wiki_MostFrequentWord times only gen.make(0)"};
  std::string extra_note{"Embed + Unfold + C2/C3 guards (aggbased self cost)"};
  std::string marginal_note{"0: fm-ahf runs one query"};

  std::function<In(std::uint64_t)> gen(int side) const {
    auto g = std::make_shared<aggspes::wiki::WikiGenerator>(seed + side);
    return [g](std::uint64_t i) { return g->make(i); };
  }

  static std::uint64_t hash(const Out& o) { return std::hash<std::string>{}(o); }

  static std::vector<Out> f_fm(const In& e) {
    using aggspes::wiki::most_frequent_word;
    return {most_frequent_word(e.orig) + " " + most_frequent_word(e.change) +
            " " + most_frequent_word(e.updated)};
  }

  static aggspes::FlatMapFn<In, Out> udf(UdfCounters* c) {
    aggspes::FlatMapFn<In, Out> f = &f_fm;
    if (c == nullptr) return f;
    return traced_fn(std::move(f), trace::Registry::get().id("operators.udf.f_fm"),
                     &c->calls, 1);
  }

  template <typename W>
  Probe build(W& w, int v, const SourcePorts<In>& src, NodeBase& sink,
              Consumer<Out>& sink_in, UdfCounters* c) const {
    Probe p;
    switch (v) {
      case 0: {
        auto& op = w.template add<aggspes::FlatMapOp<In, Out>>(udf(c));
        w.connect(*src[0].first, *src[0].second, op, op.in());
        w.connect(op, op.out(), sink, sink_in);
        break;
      }
      case 1: {
        aggspes::AggBasedFlatMap<In, Out, aggspes::swa::SlicedWindowMachine> op(
            w, udf(c), /*lateness=*/timing.wm_period);
        w.connect(*src[0].first, *src[0].second, op.in_node(), op.in());
        w.connect(op.out_node(), op.out(), sink, sink_in);
        auto* m = &op.embed().machine();
        m->reset_diagnostics();
        // The composite only holds references into the flow; the Unfold
        // machine outlives it there.
        const auto* a1 = &op.unfold().a1_machine();
        p.peak_stored = [m] { return m->peak_occupancy(); };
        p.peak_panes = [m] { return m->peak_panes(); };
        p.loop_hops = [a1] { return a1->fired_instances(); };
        break;
      }
      default: {
        auto& op = aggspes::make_aplus_flatmap<In, Out,
                                               aggspes::swa::SlicedWindowMachine>(
            w, udf(c));
        w.connect(*src[0].first, *src[0].second, op, op.in());
        w.connect(op, op.out(), sink, sink_in);
        auto* m = &op.machine();
        m->reset_diagnostics();
        p.peak_stored = [m] { return m->peak_occupancy(); };
        p.peak_panes = [m] { return m->peak_panes(); };
        break;
      }
    }
    return p;
  }

  /// f_FM ns per call over the stream's first micro_tuples edits (the
  /// repo's BM_Wiki_MostFrequentWord times only gen.make(0)).
  double udf_ns() const {
    auto g = gen(0);
    std::vector<In> edits;
    for (std::uint64_t i = 0; i < micro_tuples; ++i) edits.push_back(g(i));
    std::size_t chars = 0;
    const std::uint64_t t0 = now_ns();
    for (const In& e : edits) chars += f_fm(e)[0].size();
    const double ns = static_cast<double>(now_ns() - t0);
    keep(chars);
    return ns / static_cast<double>(edits.size());
  }

  /// The δ-tumbling window store of Embed (A) and of the A+ aggregate,
  /// keyed by the whole edit, driven with the load point's tuples and
  /// watermarks: add plus fire per tuple. D is stateless (0).
  double store_ns(int v, const Schedule& s,
                  const std::vector<std::uint64_t>& n) const {
    if (v == 0) return 0;
    using Machine = aggspes::swa::SlicedWindowMachine<In, In>;
    Machine m(aggspes::WindowSpec{.advance = aggspes::kDelta,
                                  .size = aggspes::kDelta},
              [](const In& e) { return e; });
    auto g = gen(0);
    const std::uint64_t count = std::min<std::uint64_t>(n[0], micro_tuples);
    std::vector<Tuple<In>> tuples;
    for (std::uint64_t i = 0; i < count; ++i) tuples.push_back({s.ts_of(i), 0, g(i)});
    std::uint64_t fired = 0;
    typename Machine::FireFn fire = [&fired](Timestamp, const In&,
                                             const typename Machine::Result& r,
                                             bool) { fired += r.size(); };
    Timestamp wm = aggspes::kMinTimestamp;
    Timestamp next_wm = s.wm_period;
    const std::uint64_t t0 = now_ns();
    for (const Tuple<In>& t : tuples) {
      while (t.ts >= next_wm) {
        wm = next_wm;
        m.advance(wm, fire);
        next_wm += s.wm_period;
      }
      m.add(t, wm, fire);
    }
    m.advance(s.flush_to(), fire);
    const double ns = static_cast<double>(now_ns() - t0);
    keep(fired);
    return ns / static_cast<double>(count);
  }

  std::string store_note(int v) const {
    return v == 0 ? "no window store (stateless FlatMap)"
                  : "delta-tumbling sliced store keyed by the edit";
  }

  double marginal_ns(const std::array<double, 3>&) const { return 0; }
};

}  // namespace pb
