// join-ahj: Table 1 ahj (synthetic 2D scans, keyed by quantized mean
// distance, matched when the summed beam difference is under 0.6 m; WS =
// 2 s, WA = 0.5 s, event time accelerated 10x) as D, A and A+ on the
// sliced window backend — the paper's Figs 9-11.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/join.hpp"
#include "core/operators/join.hpp"
#include "core/swa/join_store.hpp"
#include "core/swa/sliced_machine.hpp"
#include "engine.hpp"
#include "workloads/scans.hpp"

namespace pb {

struct JoinAhj {
  using In = aggspes::scans::Scan2D;
  using Out = std::pair<In, In>;
  using Sides = aggspes::JoinSides<In, In>;
  static constexpr const char* kName = "join-ahj";
  static constexpr std::array<const char*, 3> kVariants{"D", "A", "Aplus"};
  static constexpr int kSources = 2;
  static constexpr aggspes::WindowSpec kSpec{.advance = 500, .size = 2000};
  static constexpr double kMaxDiff = 0.6;

  std::uint64_t seed;
  Timing timing{.load_rate = 7500,
                .sat_multiple = 3,
                .ticks_per_s = 10000,
                .wm_period = 500,
                .flush_horizon = kSpec.size + 3 * 500 + 10};
  std::uint64_t micro_tuples{4000};
  std::uint64_t span_every{16};
  std::string udf_note{"f_K per tuple + f_P per comparison"};
  std::string extra_note{"Embed wrappers + match envelope + Unfold + guards"};
  std::string marginal_note{"0: join-ahj runs one query"};

  std::function<In(std::uint64_t)> gen(int side) const {
    auto g = std::make_shared<aggspes::scans::ScanGenerator>(seed + side);
    return [g](std::uint64_t i) { return g->make(i); };
  }

  static std::uint64_t hash(const Out& o) {
    return std::hash<In>{}(o.first) ^ mix64(std::hash<In>{}(o.second));
  }

  static int f_k(const In& s) { return aggspes::scans::mean_bucket(s); }
  static bool f_p(const In& a, const In& b) {
    return a.id != b.id && aggspes::scans::sum_abs_diff(a, b) < kMaxDiff;
  }

  template <typename W>
  Probe build(W& w, int v, const SourcePorts<In>& src, NodeBase& sink,
              Consumer<Out>& sink_in, UdfCounters* c) const {
    std::function<int(const In&)> k1 = &f_k;
    std::function<int(const In&)> k2 = &f_k;
    std::function<bool(const In&, const In&)> p = &f_p;
    if (c != nullptr) {
      const int ks = trace::Registry::get().id("operators.udf.f_k");
      k1 = traced_fn(std::move(k1), ks, &c->calls, span_every);
      k2 = traced_fn(std::move(k2), ks, &c->calls, span_every);
      p = traced_fn(std::move(p), trace::Registry::get().id("operators.udf.f_p"),
                    &c->comparisons, span_every);
    }
    Probe probe;
    auto wire = [&](NodeBase& l, Consumer<In>& l_in, NodeBase& r,
                    Consumer<In>& r_in, NodeBase& o, Outlet<Out>& out) {
      w.connect(*src[0].first, *src[0].second, l, l_in);
      w.connect(*src[1].first, *src[1].second, r, r_in);
      w.connect(o, out, sink, sink_in);
    };
    auto peaks = [&probe](auto* m) {
      m->reset_diagnostics();
      probe.peak_stored = [m] { return m->peak_occupancy(); };
      probe.peak_panes = [m] { return m->peak_panes(); };
    };
    switch (v) {
      case 0: {
        auto& op = w.template add<aggspes::JoinOp<In, In, int>>(kSpec, k1, k2, p);
        wire(op, op.in_left(), op, op.in_right(), op, op.out());
        peaks(&op);
        break;
      }
      case 1: {
        aggspes::AggBasedJoin<In, In, int, aggspes::swa::SlicedWindowMachine> op(
            w, kSpec, k1, k2, p, /*lateness=*/timing.wm_period);
        wire(op.left_in_node(), op.left_in(), op.right_in_node(), op.right_in(),
             op.out_node(), op.out());
        peaks(&op.match().machine());
        break;
      }
      default: {
        aggspes::AplusJoin<In, In, int, aggspes::swa::SlicedWindowMachine> op(
            w, kSpec, k1, k2, p);
        wire(op.left_in_node(), op.left_in(), op.right_in_node(), op.right_in(),
             op.out_node(), op.out());
        peaks(&op.match().machine());
        break;
      }
    }
    return probe;
  }

  /// Mean f_K ns per tuple plus mean f_P ns per comparison, over the
  /// streams' own same-key pairs (each left scan against the next 32
  /// right scans, as the store would pair them).
  double udf_ns() const {
    auto gl = gen(0);
    auto gr = gen(1);
    std::vector<In> ls;
    std::vector<In> rs;
    for (std::uint64_t i = 0; i < micro_tuples; ++i) {
      ls.push_back(gl(i));
      rs.push_back(gr(i));
    }
    std::vector<int> kl;
    std::vector<int> kr;
    const std::uint64_t t0 = now_ns();
    for (const In& s : ls) kl.push_back(f_k(s));
    for (const In& s : rs) kr.push_back(f_k(s));
    const double k_ns = static_cast<double>(now_ns() - t0) /
                        static_cast<double>(ls.size() + rs.size());
    std::uint64_t cmp = 0;
    std::uint64_t matches = 0;
    const std::uint64_t t1 = now_ns();
    for (std::size_t i = 0; i < ls.size(); ++i) {
      for (std::size_t j = i; j < std::min(rs.size(), i + 32); ++j) {
        if (kl[i] != kr[j]) continue;
        ++cmp;
        matches += f_p(ls[i], rs[j]) ? 1 : 0;
      }
    }
    const double p_ns = static_cast<double>(now_ns() - t1) /
                        static_cast<double>(std::max<std::uint64_t>(cmp, 1));
    keep(matches);
    return k_ns + p_ns;
  }

  /// The variant's window store driven with the load point's tuples of both
  /// sides (alternating) and their watermarks; keys are precomputed, so
  /// only the store works: probe every open instance plus insert (D's
  /// JoinPaneStore), or add plus fire (A / A+'s sliced store of sides).
  double store_ns(int v, const Schedule& s,
                  const std::vector<std::uint64_t>& n) const {
    const std::uint64_t count =
        std::min<std::uint64_t>(std::min(n[0], n[1]), micro_tuples);
    auto gl = gen(0);
    auto gr = gen(1);
    std::vector<Tuple<In>> ls;
    std::vector<Tuple<In>> rs;
    std::vector<int> kl;
    std::vector<int> kr;
    for (std::uint64_t i = 0; i < count; ++i) {
      ls.push_back({s.ts_of(i), 0, gl(i)});
      rs.push_back({s.ts_of(i), 0, gr(i)});
      kl.push_back(f_k(ls.back().value));
      kr.push_back(f_k(rs.back().value));
    }
    std::uint64_t visited = 0;
    Timestamp next_wm = s.wm_period;
    if (v == 0) {
      aggspes::swa::JoinPaneStore<In, In, int> store(kSpec);
      Timestamp wm = aggspes::kMinTimestamp;
      auto probe_add = [&](const Tuple<In>& t, int key, bool left) {
        bool stored = false;
        kSpec.for_each_instance(t.ts, [&](Timestamp l) {
          if (kSpec.closes(l, wm)) return;
          if (left) {
            store.for_each_right(l, key, [&](const Tuple<In>&) { ++visited; });
            if (!stored) store.add_left(key, t);
          } else {
            store.for_each_left(l, key, [&](const Tuple<In>&) { ++visited; });
            if (!stored) store.add_right(key, t);
          }
          stored = true;
        });
      };
      const std::uint64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < count; ++i) {
        while (ls[i].ts >= next_wm) {
          wm = next_wm;
          store.purge_closed(wm);
          next_wm += s.wm_period;
        }
        probe_add(ls[i], kl[i], true);
        probe_add(rs[i], kr[i], false);
      }
      store.purge_closed(s.flush_to());
      keep(visited);
      return static_cast<double>(now_ns() - t0) / static_cast<double>(2 * count);
    }
    using Machine = aggspes::swa::SlicedWindowMachine<Sides, int>;
    std::vector<Tuple<Sides>> sides;
    std::vector<int> keys;
    for (std::uint64_t i = 0; i < count; ++i) {
      sides.push_back({ls[i].ts, 0, Sides{{ls[i].value}, {}}});
      keys.push_back(kl[i]);
      sides.push_back({rs[i].ts, 0, Sides{{}, {rs[i].value}}});
      keys.push_back(kr[i]);
    }
    std::size_t at = 0;
    Machine m(kSpec, [&keys, &at](const Sides&) { return keys[at]; });
    typename Machine::FireFn fire = [&visited](Timestamp, const int&,
                                               const typename Machine::Result& r,
                                               bool) { visited += r.size(); };
    Timestamp wm = aggspes::kMinTimestamp;
    const std::uint64_t t0 = now_ns();
    for (; at < sides.size(); ++at) {
      while (sides[at].ts >= next_wm) {
        wm = next_wm;
        m.advance(wm, fire);
        next_wm += s.wm_period;
      }
      m.add(sides[at], wm, fire);
    }
    m.advance(s.flush_to(), fire);
    keep(visited);
    return static_cast<double>(now_ns() - t0) / static_cast<double>(sides.size());
  }

  std::string store_note(int v) const {
    return v == 0 ? "JoinPaneStore probe of open instances + insert"
                  : "sliced store of join sides, add + fire";
  }

  double marginal_ns(const std::array<double, 3>&) const { return 0; }
};

}  // namespace pb
