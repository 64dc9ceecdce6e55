// Epoch cache of PathSnapshots keyed on (UE, cell, time).
//
// A PathSnapshot freezes every per-path quantity of one (base station,
// mobile) link at one instant; rebuilding it is the expensive step the
// sweep kernels amortise. The UE pose is a pure function of time and base
// stations never move, so (ue, cell, t) fully keys the geometry — but the
// shadowing and blockage processes are *per-link* state, which is why the
// UE id is part of the key: two mobiles at the same instant never share a
// snapshot. Storage is one entry per cell, reused in place across
// rebuilds (no allocation once warm).
//
// Each entry carries the SnapshotReuse state of its last build, threaded
// into Channel::update_snapshot on every rebuild: a warm same-UE rebuild
// at a new instant (a "refresh") recomputes only the components the pose
// delta invalidates instead of the whole snapshot. The cache holds its
// environment's SnapshotCacheStats and counts the rebuild causes there —
// a refresh, a cold miss, and an eviction forced by a different UE are
// separate counters, so a reuse regression is visible in the reports
// rather than folded into one opaque miss count. The channel's builds and
// the environment's sweeps are counted into the same value (stats()).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "phy/path_snapshot.hpp"
#include "sim/time.hpp"

namespace st::phy {

class SnapshotEpochCache {
 public:
  /// One slot per cell; existing snapshot storage is kept on resize.
  void resize(std::size_t cells) { entries_.resize(cells); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Snapshot for (ue, cell, t). An entry is served as-is iff it was built
  /// for exactly this key; any other query rebuilds in place via
  /// `build(PathSnapshot&, SnapshotReuse&)` — typically a
  /// Channel::update_snapshot call, which uses the reuse state to make
  /// same-UE rebuilds incremental. The entry is marked invalid before the
  /// build runs, so a throwing builder can never leave a stale snapshot
  /// keyed as current (the reuse state guards itself the same way inside
  /// update_snapshot).
  template <typename BuildFn>
  const PathSnapshot& fill(std::uint32_t ue, std::size_t cell, sim::Time t,
                           BuildFn&& build) {
    Entry& entry = entries_[cell];
    if (entry.valid && entry.ue == ue && entry.t == t) {
      ++stats_.hits;
      return entry.snapshot;
    }
    if (!entry.valid) {
      ++stats_.cold_misses;
    } else if (entry.ue == ue) {
      ++stats_.refreshes;
    } else {
      ++stats_.invalidations;
      entry.reuse.valid = false;  // another UE's state: never carry over
    }
    entry.valid = false;
    build(entry.snapshot, entry.reuse);
    entry.ue = ue;
    entry.t = t;
    entry.valid = true;
    return entry.snapshot;
  }

  /// The snapshot held for (ue, cell) and, in `*t`, the instant it was
  /// built for; nullptr when the slot is empty or holds another UE's
  /// snapshot. Read-only: it builds nothing and counts nothing, so a
  /// caller may inspect an older epoch without moving the statistics.
  [[nodiscard]] const PathSnapshot* cached(std::uint32_t ue, std::size_t cell,
                                           sim::Time* t) const noexcept {
    const Entry& entry = entries_[cell];
    if (!entry.valid || entry.ue != ue) {
      return nullptr;
    }
    *t = entry.t;
    return &entry.snapshot;
  }

  /// The environment's snapshot work counters. The cache counts its
  /// queries; the mutable overload lets the builder and the owning
  /// environment count theirs into the same value.
  [[nodiscard]] const SnapshotCacheStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] SnapshotCacheStats& stats() noexcept { return stats_; }

  /// One cell's slot: the snapshot of (ue, t) when valid, and the reuse
  /// state of its last build.
  struct Entry {
    bool valid = false;
    std::uint32_t ue = 0;
    sim::Time t;
    PathSnapshot snapshot;
    SnapshotReuse reuse;
  };

  /// Everything the cache holds, entries and statistics, for a caller
  /// that evaluates off the record and then puts it all back: the
  /// invariant checker's extra evaluations (net::RadioEnvironment).
  struct State {
    std::vector<Entry> entries;
    SnapshotCacheStats stats;
  };
  [[nodiscard]] State save() const { return {entries_, stats_}; }
  void restore(State state) noexcept {
    entries_ = std::move(state.entries);
    stats_ = state.stats;
  }

 private:
  std::vector<Entry> entries_;
  SnapshotCacheStats stats_;
};

}  // namespace st::phy
