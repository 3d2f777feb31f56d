// agg-sliding: a keyed sliding-window int64 sum (WS/WA = 32) on the pane
// engine. Q1 is one MonoidAggregateOp (the single-query sliced engine with
// its batch kernels); Q1L is the same query alone on the shared lattice
// (MultiQueryMonoidOp); Q16 is 16 differing window specs on one lattice.
// No user function beyond the key, no loop: a store or channel gain shows
// here, an aggbased gain must not.
#pragma once

#include <optional>
#include <vector>

#include "core/runtime/multi_query.hpp"
#include "core/swa/monoid_aggregate.hpp"
#include "engine.hpp"

namespace pb {

struct AggOut {
  std::int32_t query{0};
  std::int64_t key{0};
  std::int64_t sum{0};
};

struct AggSliding {
  using In = std::int64_t;
  using Out = AggOut;
  static constexpr const char* kName = "agg-sliding";
  static constexpr std::array<const char*, 3> kVariants{"Q1", "Q1L", "Q16"};
  static constexpr int kSources = 1;
  static constexpr std::int64_t kKeys = 512;
  static constexpr int kQueries = 16;

  std::uint64_t seed;
  Timing timing{.load_rate = 400000,
                .sat_multiple = 14,
                .ticks_per_s = 1000,
                .wm_period = 20,
                .flush_horizon = 160 * 32 + 3 * 20 + 10};
  std::uint64_t micro_tuples{400000};
  static constexpr std::uint64_t kSpanEvery = 64;
  std::uint64_t span_every{kSpanEvery};
  std::string udf_note{"f_K (key of the payload) per tuple"};
  std::string extra_note{"shared-lattice cost over the dedicated sliced engine"};
  std::string marginal_note{"(store_ns.v3 - store_ns.v2) / 15: cost of each "
                            "extra query on the lattice"};

  /// Query q's window: WA in {20, 40, 80, 160} ticks, WS = WA x {8, 16,
  /// 24, 32}; query 0 (the Q1 / Q1L query) is WA = 20, WS = 32 x WA.
  static aggspes::WindowSpec spec(int q) {
    const Timestamp wa = Timestamp{20} << (q / 4);
    const Timestamp ratio = 32 - 8 * (q % 4);
    return {.advance = wa, .size = wa * ratio};
  }

  static int queries_of(int v) { return v == 2 ? kQueries : 1; }

  std::function<In(std::uint64_t)> gen(int side) const {
    const std::uint64_t s = mix64(seed + static_cast<std::uint64_t>(side));
    return [s](std::uint64_t i) -> In {
      const std::uint64_t h = mix64(s ^ (i * 0x9e3779b97f4a7c15ULL));
      const auto key = static_cast<std::int64_t>(h % kKeys);
      const auto value = static_cast<std::int64_t>((h >> 32) % 1000);
      return value * kKeys + key;
    };
  }

  static std::uint64_t hash(const Out& o) {
    return mix64(static_cast<std::uint64_t>(o.query) ^
                 mix64(static_cast<std::uint64_t>(o.key) ^
                       mix64(static_cast<std::uint64_t>(o.sum))));
  }

  static std::int64_t key_of(const In& v) { return v % kKeys; }

  static std::function<std::int64_t(const In&)> key_fn(UdfCounters* c) {
    std::function<std::int64_t(const In&)> f = &key_of;
    if (c == nullptr) return f;
    return traced_fn(std::move(f), trace::Registry::get().id("operators.udf.f_k"),
                     &c->calls, kSpanEvery);
  }

  static auto lower(int q) {
    return [q](const std::int64_t& key, const aggspes::swa::WindowAggregate<In>& wa)
               -> std::optional<Out> { return Out{q, key, wa.agg}; };
  }

  template <typename W>
  Probe build(W& w, int v, const SourcePorts<In>& src, NodeBase& sink,
              Consumer<Out>& sink_in, UdfCounters* c) const {
    Probe p;
    if (v == 0) {
      auto& op = w.template add<aggspes::swa::MonoidAggregateOp<In, Out, std::int64_t, In>>(
          spec(0), key_fn(c), aggspes::swa::sum_monoid<In>(), lower(0));
      w.connect(*src[0].first, *src[0].second, op, op.in());
      w.connect(op, op.out(), sink, sink_in);
      auto* m = &op.machine();
      m->reset_diagnostics();
      p.peak_stored = [m] { return m->peak_occupancy(); };
      p.peak_panes = [m] { return m->peak_panes(); };
      return p;
    }
    std::vector<aggspes::MonoidQuery<Out, std::int64_t, In>> qs;
    for (int q = 0; q < queries_of(v); ++q) qs.push_back({spec(q), lower(q)});
    auto& op = w.template add<aggspes::MultiQueryMonoidOp<In, Out, std::int64_t, In>>(
        std::move(qs), key_fn(c), aggspes::swa::sum_monoid<In>());
    w.connect(*src[0].first, *src[0].second, op, op.in());
    for (int q = 0; q < queries_of(v); ++q) w.connect(op, op.out(q), sink, sink_in);
    auto* lat = &op.lattice();
    lat->reset_diagnostics();
    // The lattice exposes no pane peak; swa.peak_panes reads 0 for it.
    p.peak_stored = [lat] { return lat->peak_occupancy(); };
    return p;
  }

  /// Each query alone on a dedicated single-query flow (MonoidAggregateOp),
  /// fed the load point's input: the reference every variant's replay must
  /// equal, query by query.
  std::vector<std::uint64_t> dedicated_reference(int v, const Schedule& s,
                                                 std::uint64_t n) const {
    std::vector<std::vector<std::uint64_t>> per(static_cast<std::size_t>(queries_of(v)));
    std::vector<std::function<void()>> tasks;
    for (int q = 0; q < queries_of(v); ++q) {
      tasks.push_back([&, q] {
        aggspes::Flow flow;
        auto& f = flow.add<Feeder<In>>(s, gen(0), n);
        auto& op = flow.add<aggspes::swa::MonoidAggregateOp<In, Out, std::int64_t, In>>(
            spec(q), &key_of, aggspes::swa::sum_monoid<In>(), lower(q));
        auto& sink = flow.add<CheckedSink<Out>>(&hash, false);
        flow.connect(f.out(), op.in());
        flow.connect(op.out(), sink.in());
        while (!f.done()) {
          f.step(512);
          flow.drain();
        }
        per[static_cast<std::size_t>(q)] = std::move(sink.hashes());
      });
    }
    run_parallel(std::move(tasks), std::thread::hardware_concurrency());
    std::vector<std::uint64_t> all;
    for (auto& h : per) all.insert(all.end(), h.begin(), h.end());
    std::sort(all.begin(), all.end());
    return all;
  }

  double udf_ns() const {
    auto g = gen(0);
    std::vector<In> vs;
    for (std::uint64_t i = 0; i < micro_tuples; ++i) vs.push_back(g(i));
    const std::function<std::int64_t(const In&)> f = &key_of;
    std::int64_t acc = 0;
    const std::uint64_t t0 = now_ns();
    for (const In& v : vs) acc += f(v);
    const double ns = static_cast<double>(now_ns() - t0);
    keep(acc);
    return ns / static_cast<double>(vs.size());
  }

  /// The variant's store driven with the load point's tuples and
  /// watermarks: Q1's sliced monoid engine through add_block on the
  /// watermark-delimited runs (as its operator does), the lattice through
  /// add per tuple; fire included.
  double store_ns(int v, const Schedule& s,
                  const std::vector<std::uint64_t>& n) const {
    const std::uint64_t count = std::min<std::uint64_t>(n[0], micro_tuples);
    auto g = gen(0);
    std::vector<Tuple<In>> tuples;
    for (std::uint64_t i = 0; i < count; ++i) tuples.push_back({s.ts_of(i), 0, g(i)});
    std::uint64_t fired = 0;
    Timestamp wm = aggspes::kMinTimestamp;
    Timestamp next_wm = s.wm_period;
    if (v == 0) {
      using Machine = aggspes::swa::MonoidWindowMachine<In, In, std::int64_t>;
      Machine m(spec(0), &key_of, aggspes::swa::MonoidPolicy<In, In, std::int64_t>(
                                      aggspes::swa::sum_monoid<In>()));
      typename Machine::FireFn fire = [&fired](Timestamp, const std::int64_t&,
                                               const typename Machine::Result&,
                                               bool) { ++fired; };
      const std::uint64_t t0 = now_ns();
      std::size_t i = 0;
      while (i < tuples.size()) {
        while (tuples[i].ts >= next_wm) {
          wm = next_wm;
          m.advance(wm, fire);
          next_wm += s.wm_period;
        }
        std::size_t j = i;
        while (j < tuples.size() && j - i < aggspes::kElementBlockCapacity &&
               tuples[j].ts < next_wm) {
          ++j;
        }
        m.add_block(tuples.data() + i, j - i, wm, fire);
        i = j;
      }
      m.advance(s.flush_to(), fire);
      keep(fired);
      return static_cast<double>(now_ns() - t0) / static_cast<double>(count);
    }
    std::vector<aggspes::WindowSpec> specs;
    for (int q = 0; q < queries_of(v); ++q) specs.push_back(spec(q));
    aggspes::swa::MonoidLattice<In, In, std::int64_t> lat(
        specs, &key_of,
        aggspes::swa::LatticeMonoidPolicy<In, In, std::int64_t>(
            aggspes::swa::sum_monoid<In>()));
    typename decltype(lat)::FireFn fire =
        [&fired](int, Timestamp, const std::int64_t&,
                 const typename decltype(lat)::Result&, bool) { ++fired; };
    const std::uint64_t t0 = now_ns();
    for (const Tuple<In>& t : tuples) {
      while (t.ts >= next_wm) {
        wm = next_wm;
        lat.advance(wm, fire);
        next_wm += s.wm_period;
      }
      lat.add(t, wm, fire);
    }
    lat.advance(s.flush_to(), fire);
    keep(fired);
    return static_cast<double>(now_ns() - t0) / static_cast<double>(count);
  }

  std::string store_note(int v) const {
    return v == 0 ? "single-query sliced monoid engine, add_block + fire"
                  : "shared monoid lattice, add + fire";
  }

  double marginal_ns(const std::array<double, 3>& store) const {
    return (store[2] - store[1]) / (kQueries - 1);
  }
};

}  // namespace pb
