// Multi-query harness runner (DESIGN.md § 14): RateSource → one
// MultiQueryMonoidOp hosting cfg.queries on a shared pane lattice → one
// MeasuringSink fed by every query outlet. The flow-level metrics
// (achieved rate, outputs/s, latency percentiles) aggregate all Q output
// streams; RunResult::per_query slices the lattice's per-query accounting
// (outputs, store-level sheds attributed to the query, its own lateness
// drops/updates). bench_multiquery drives this at Q ∈ {1, 16, 256} for
// the marginal-cost-per-query measurement.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/runtime/multi_query.hpp"
#include "harness/sustainable.hpp"

namespace aggspes::harness {

/// Builds and runs one multi-query experiment at cfg.rate: every spec in
/// cfg.queries becomes a concurrent query over the same keyed stream,
/// lowered through the shared monoid `m` (the per-query output payload is
/// the finished aggregate). Shedding, when configured, gates the
/// lattice's store edge — one decision per tuple, attributed per query —
/// so per_query[q].shed is that query's real loss, not a flow-global
/// total.
template <typename In, typename Key, typename Agg>
RunResult run_multiquery(const RunConfig& cfg,
                         std::function<In(std::uint64_t)> gen,
                         std::function<Key(const In&)> f_k,
                         swa::Monoid<In, Agg> m) {
  if (cfg.queries.empty()) {
    throw std::invalid_argument(
        "run_multiquery needs at least one spec in cfg.queries");
  }
  const std::size_t n_queries = cfg.queries.size();
  ThreadedFlow flow;
  flow.set_batch_block(cfg.batch_block);
  Timestamp max_close = 0;
  for (const WindowSpec& s : cfg.queries) {
    max_close = std::max(max_close, s.size + s.lateness);
  }
  const Timestamp flush = max_close + 3 * cfg.wm_period + 10;
  auto& src = flow.add<RateSource<In>>(
      detail::source_config<In>(cfg, cfg.rate, flush), std::move(gen));
  auto& sink = flow.add<MeasuringSink<Agg>>();

  // Per-query output tallies, bumped inside `lower` on the operator's
  // thread only; read after the run.
  auto outputs = std::make_shared<std::vector<std::uint64_t>>(n_queries, 0);
  std::vector<MonoidQuery<Agg, Key, Agg>> queries;
  queries.reserve(n_queries);
  for (std::size_t q = 0; q < n_queries; ++q) {
    queries.push_back(
        {cfg.queries[q],
         [outputs, q](const Key&, const swa::WindowAggregate<Agg>& wa) {
           ++(*outputs)[q];
           return std::optional<Agg>(wa.agg);
         }});
  }
  auto& op = flow.add<MultiQueryMonoidOp<In, Agg, Key, Agg>>(
      std::move(queries), std::move(f_k), std::move(m));

  OverloadMonitor monitor(cfg.overload);
  std::optional<Shedder> shedder;
  if (cfg.shed.policy != ShedPolicy::kNone) {
    shedder.emplace(cfg.shed, &monitor);
    op.lattice().set_shedder(&*shedder);
    flow.attach_overload(&monitor);
  }
  std::optional<detail::ScopedWal> wal;
  if (cfg.durability.enabled) {
    wal.emplace(cfg.durability, "multiquery");
    src.set_durable(&wal->log());
  }

  flow.connect(src, src.out(), op, op.in());
  for (std::size_t q = 0; q < n_queries; ++q) {
    // All query outlets feed one sink: the sink exits after Q ends, and
    // the flow metrics aggregate every query's output stream.
    flow.connect(op, op.out(static_cast<int>(q)), sink, sink.in());
  }

  const std::uint64_t t0 = now_ns();
  flow.run();
  const std::uint64_t t1 = now_ns();
  RunResult r = detail::finalize(cfg, cfg.rate, t0, t1, src.emitted(),
                                 src.emission_seconds(), sink, 0);
  r.backend = "monoid-lattice";
  r.queries = static_cast<int>(n_queries);
  r.peak_stored = op.lattice().peak_occupancy();
  r.peak_panes = op.lattice().peak_panes();
  for (std::size_t q = 0; q < n_queries; ++q) {
    const int qi = static_cast<int>(q);
    QueryDiag d;
    d.advance = cfg.queries[q].advance;
    d.size = cfg.queries[q].size;
    d.outputs = (*outputs)[q];
    d.shed = op.lattice().shed_for_query(qi);
    d.dropped_late = op.lattice().dropped_late(qi);
    d.late_updates = op.lattice().late_updates(qi);
    d.fired_instances = op.lattice().fired_instances(qi);
    r.per_query.push_back(d);
  }
  if (shedder) {
    r.shed_count = shedder->shed();
    const std::uint64_t generated = shedder->shed() + shedder->admitted();
    r.shed_ratio = generated > 0 ? static_cast<double>(r.shed_count) /
                                       static_cast<double>(generated)
                                 : 0;
    r.health = flow_health_name(monitor.worst());
    r.shed_top_keys = shedder->top_shed_keys(kShedTopK);
  }
  r.cutoff_fired = src.cutoff_fired();
  r.cutoff_at_s = src.cutoff_at_s();
  if (wal) wal->collect(r);
  return r;
}

}  // namespace aggspes::harness
