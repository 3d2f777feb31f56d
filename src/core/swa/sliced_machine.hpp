// The sliced window backend (DESIGN.md § 9): the pane engine
// (pane_engine.hpp) over one window spec, with WindowMachine's constructor
// shape and FireFn/AddedFn signatures, plus the replay policy that makes
// it a drop-in WindowMachine replacement for arbitrary f_O.
//
// SlicedEngine stores each tuple exactly once — in its gcd(WA, WS)-wide
// pane — instead of copying it into every overlapping instance, and its
// fires are bit-identical to WindowMachine's (per-instance Dataflow
// admission, once-per-(instance, key) fires in instance order, the same
// drop and late-update counters). It is the Q = 1 case of the shared
// lattice: the same code, presented with single-query callbacks and the
// single-query snapshot header.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/swa/pane.hpp"
#include "core/swa/pane_engine.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes::swa {

/// The replay fallback for arbitrary f_O: pane cells hold the tuples
/// themselves (each stored once, tagged with a global arrival sequence
/// number), and evaluation materializes an instance's contents in arrival
/// order — so fire payloads are element-for-element identical to the
/// buffering backend's item vectors.
template <typename In>
class ReplayPolicy {
 public:
  struct Entry {
    std::uint64_t seq{0};
    Tuple<In> t;
  };
  struct Cell {
    std::vector<Entry> entries;
  };
  using Result = std::vector<Tuple<In>>;

  template <typename Key>
  void absorb(const Key& /*key*/, Cell& c, Timestamp, const Tuple<In>& t,
              std::uint64_t seq) {
    c.entries.push_back({seq, t});
  }

  /// Tuples a cell contributes to the engine's occupancy diagnostics.
  static std::size_t cell_count(const Cell& c) { return c.entries.size(); }

  template <typename PaneMap, typename Key>
  const Result& evaluate(const PaneMap& panes, const WindowSpec& spec,
                         const PaneGeometry&, Timestamp l, const Key& key,
                         bool /*sequential*/) {
    scratch_.clear();
    const Timestamp end = l + spec.size;
    for (auto it = panes.lower_bound(l); it != panes.end() && it->first < end;
         ++it) {
      auto cell = it->second.find(key);
      if (cell == it->second.end()) continue;
      for (const Entry& e : cell->second.entries) scratch_.push_back(&e);
    }
    // Panes are time-ordered but arrival interleaves across panes; the seq
    // tags restore global arrival order.
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
    result_.clear();
    result_.reserve(scratch_.size());
    for (const Entry* e : scratch_) result_.push_back(e->t);
    return result_;
  }

  /// A one-pane instance: the cell is the whole window for its key, and
  /// its entries are already in arrival order (absorb appends with
  /// increasing seq, load_cell keeps the saved order) — no sort needed.
  const Result& evaluate_cell(const Cell& c) {
    result_.clear();
    result_.reserve(c.entries.size());
    for (const Entry& e : c.entries) result_.push_back(e.t);
    return result_;
  }

  void reset() {}

  /// Only instantiated for payloads with a StateCodec (operators guard
  /// with `if constexpr (SnapshotSerializable<...>)`).
  void save_cell(SnapshotWriter& w, const Cell& c) const {
    w.write_size(c.entries.size());
    for (const Entry& e : c.entries) {
      w.write_u64(e.seq);
      write_value(w, e.t);
    }
  }

  Cell load_cell(SnapshotReader& r) const {
    Cell c;
    const std::size_t n = r.read_size();
    c.entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Entry e;
      e.seq = r.read_u64();
      e.t = read_value<Tuple<In>>(r);
      c.entries.push_back(std::move(e));
    }
    return c;
  }

 private:
  std::vector<const Entry*> scratch_;
  Result result_;
};

/// Drop-in WindowMachine replacement: same constructor shape, same FireFn
/// and AddedFn signatures, single-copy pane storage. Select it per
/// operator via the Backend template parameter of Aggregate/A+/A++.
template <typename In, typename Key>
using SlicedWindowMachine = SlicedEngine<In, Key, ReplayPolicy<In>>;

}  // namespace aggspes::swa
