// The (UE, cell, time) epoch cache behind RadioEnvironment::snapshot_for.
// Per-cell storage with UE identity in the key: two mobiles querying the
// same cell at the same instant must never share a snapshot (shadowing
// and blockage are per-link state), and a throwing builder must never
// leave a stale snapshot keyed as current. The stats must split the
// rebuild causes — an incremental same-UE refresh, a cold miss, and a
// cross-UE eviction are distinct counters — and the reuse state handed to
// the builder must be reset exactly when the previous epoch belonged to a
// different mobile.
#include "phy/snapshot_cache.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace st::phy {
namespace {

sim::Time at_ms(std::int64_t ms) {
  return sim::Time::zero() + sim::Duration::milliseconds(ms);
}

/// Builder that stamps a marker value into the snapshot, counts calls,
/// and records whether the reuse state arrived warm.
struct MarkerBuilder {
  double marker;
  int* calls;
  bool* saw_warm_reuse = nullptr;
  void operator()(PathSnapshot& snapshot, SnapshotReuse& reuse) const {
    ++*calls;
    if (saw_warm_reuse != nullptr) {
      *saw_warm_reuse = reuse.valid;
    }
    snapshot.resize(1);
    snapshot.base_db[0] = marker;
    reuse.valid = true;  // what Channel::update_snapshot does on success
  }
};

TEST(SnapshotEpochCache, RepeatQueryIsAHit) {
  SnapshotEpochCache cache;
  cache.resize(2);
  int calls = 0;
  cache.fill(0, 0, at_ms(10), MarkerBuilder{1.0, &calls});
  const PathSnapshot& again =
      cache.fill(0, 0, at_ms(10), MarkerBuilder{2.0, &calls});
  EXPECT_EQ(calls, 1);  // second query served from the epoch
  EXPECT_DOUBLE_EQ(again.base_db.at(0), 1.0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().cold_misses, 1u);
  EXPECT_EQ(cache.stats().refreshes, 0u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(SnapshotEpochCache, NewEpochIsARefreshWithWarmReuse) {
  SnapshotEpochCache cache;
  cache.resize(1);
  int calls = 0;
  bool warm = false;
  cache.fill(0, 0, at_ms(10), MarkerBuilder{1.0, &calls, &warm});
  EXPECT_FALSE(warm);  // first build starts from nothing
  const PathSnapshot& later =
      cache.fill(0, 0, at_ms(20), MarkerBuilder{2.0, &calls, &warm});
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(warm);  // same UE, new instant: reuse state carried over
  EXPECT_DOUBLE_EQ(later.base_db.at(0), 2.0);
  EXPECT_EQ(cache.stats().cold_misses, 1u);
  EXPECT_EQ(cache.stats().refreshes, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().rebuilds(), 2u);
}

TEST(SnapshotEpochCache, UeIdentityIsPartOfTheKey) {
  SnapshotEpochCache cache;
  cache.resize(1);
  int calls = 0;
  bool warm = true;
  // Same cell, same instant, different mobiles: never shared, and the
  // evicted UE's reuse state (shadowing, blockage) never carries over.
  cache.fill(0, 0, at_ms(10), MarkerBuilder{1.0, &calls});
  const PathSnapshot& other =
      cache.fill(1, 0, at_ms(10), MarkerBuilder{2.0, &calls, &warm});
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(warm);
  EXPECT_DOUBLE_EQ(other.base_db.at(0), 2.0);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // And returning to the first UE rebuilds again (one entry per cell),
  // again cold: UE 1's epoch must not seed UE 0's rebuild.
  cache.fill(0, 0, at_ms(10), MarkerBuilder{3.0, &calls, &warm});
  EXPECT_EQ(calls, 3);
  EXPECT_FALSE(warm);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(SnapshotEpochCache, CellsAreIndependentSlots) {
  SnapshotEpochCache cache;
  cache.resize(3);
  EXPECT_EQ(cache.size(), 3u);
  int calls = 0;
  cache.fill(0, 0, at_ms(10), MarkerBuilder{1.0, &calls});
  cache.fill(0, 2, at_ms(10), MarkerBuilder{3.0, &calls});
  // Filling cell 2 did not evict cell 0's epoch.
  const PathSnapshot& kept =
      cache.fill(0, 0, at_ms(10), MarkerBuilder{9.0, &calls});
  EXPECT_EQ(calls, 2);
  EXPECT_DOUBLE_EQ(kept.base_db.at(0), 1.0);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().refreshes, 0u);
}

TEST(SnapshotEpochCache, ThrowingBuilderNeverLeavesAStaleEpoch) {
  SnapshotEpochCache cache;
  cache.resize(1);
  int calls = 0;
  cache.fill(0, 0, at_ms(10), MarkerBuilder{1.0, &calls});
  EXPECT_THROW(cache.fill(0, 0, at_ms(20),
                          [](PathSnapshot&, SnapshotReuse&) {
                            throw std::runtime_error("channel failed");
                          }),
               std::runtime_error);
  // The failed rebuild marked the entry invalid: the original epoch must
  // not be served, not even for its own key.
  const PathSnapshot& rebuilt =
      cache.fill(0, 0, at_ms(10), MarkerBuilder{5.0, &calls});
  EXPECT_DOUBLE_EQ(rebuilt.base_db.at(0), 5.0);
  EXPECT_EQ(calls, 2);
  // The rebuild after the failure found an invalid entry: a cold miss,
  // not a refresh (the counters stay disjoint through the error path).
  EXPECT_EQ(cache.stats().cold_misses, 2u);
  EXPECT_EQ(cache.stats().refreshes, 1u);
}

TEST(SnapshotEpochCache, ResizeKeepsExistingEntries) {
  SnapshotEpochCache cache;
  cache.resize(1);
  int calls = 0;
  cache.fill(0, 0, at_ms(10), MarkerBuilder{1.0, &calls});
  cache.resize(4);
  const PathSnapshot& kept =
      cache.fill(0, 0, at_ms(10), MarkerBuilder{9.0, &calls});
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(kept.base_db.at(0), 1.0);
}

TEST(SnapshotEpochCache, CountersAreDisjointAndSumToQueries) {
  SnapshotEpochCache cache;
  cache.resize(2);
  int calls = 0;
  cache.fill(0, 0, at_ms(10), MarkerBuilder{1.0, &calls});  // cold
  cache.fill(0, 0, at_ms(10), MarkerBuilder{1.0, &calls});  // hit
  cache.fill(0, 0, at_ms(20), MarkerBuilder{1.0, &calls});  // refresh
  cache.fill(1, 0, at_ms(20), MarkerBuilder{1.0, &calls});  // invalidation
  cache.fill(1, 1, at_ms(20), MarkerBuilder{1.0, &calls});  // cold (cell 1)
  const SnapshotCacheStats& stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.cold_misses, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.hits + stats.rebuilds(), 5u);
}

}  // namespace
}  // namespace st::phy
