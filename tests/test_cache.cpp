#include "cachesim/cache.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace symbiosis::cachesim {
namespace {

CacheGeometry tiny_geometry() { return {1024, 4, 64}; }  // 4 sets x 4 ways

TEST(CacheGeometry, Decomposition) {
  CacheGeometry g{4 * 1024 * 1024, 16, 64};  // the paper's Core 2 Duo L2
  EXPECT_EQ(g.lines(), 65536u);
  EXPECT_EQ(g.sets(), 4096u);
  EXPECT_EQ(g.line_bits(), 6u);
  EXPECT_EQ(g.set_bits(), 12u);
  const Addr addr = 0xdeadbeef;
  const LineAddr line = g.line_of(addr);
  EXPECT_EQ(line, addr >> 6);
  EXPECT_EQ(g.set_of(line), line & 0xfff);
  EXPECT_EQ(g.tag_of(line), line >> 12);
}

TEST(CacheGeometry, Validation) {
  EXPECT_NO_THROW(tiny_geometry().validate());
  EXPECT_THROW((CacheGeometry{1000, 4, 60}).validate(), std::invalid_argument);
  EXPECT_THROW((CacheGeometry{1024, 3, 64}).validate(), std::invalid_argument);
}

TEST(Cache, MalformedGeometryThrowsBeforeUse) {
  // sets() divides by ways and lines() by line_bytes: both must be rejected
  // before the cache derives anything from the geometry.
  EXPECT_THROW(Cache(CacheGeometry{1024, 0, 64}, ReplacementKind::Lru), std::invalid_argument);
  EXPECT_THROW(Cache(CacheGeometry{1024, 4, 0}, ReplacementKind::Lru), std::invalid_argument);
}

TEST(Cache, MissThenHit) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru);
  const auto first = cache.access(100, false, 0);
  EXPECT_FALSE(first.hit);
  const auto second = cache.access(100, false, 0);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruEvictsLeastRecent) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru);
  // Fill set 0 with 4 lines (same set: line % 4 == 0).
  for (LineAddr line = 0; line < 16; line += 4) cache.access(line, false, 0);
  cache.access(0, false, 0);  // refresh line 0
  // A 5th line in set 0 must evict line 4 (the oldest untouched).
  const auto result = cache.access(16, false, 0);
  EXPECT_FALSE(result.hit);
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.victim_line, 4u);
  EXPECT_TRUE(cache.access(0, false, 0).hit);    // survived
  EXPECT_FALSE(cache.access(4, false, 0).hit);   // gone
}

TEST(Cache, VictimCarriesDirtyFlag) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru);
  cache.access(0, /*is_write=*/true, 0);
  for (LineAddr line = 4; line < 16; line += 4) cache.access(line, false, 0);
  const auto result = cache.access(16, false, 0);  // evicts dirty line 0
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.victim_line, 0u);
  EXPECT_TRUE(result.victim_dirty);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, WorkingSetWithinWaysAlwaysHitsAfterWarmup) {
  for (const auto kind : {ReplacementKind::Lru, ReplacementKind::Fifo,
                          ReplacementKind::TreePlru}) {
    Cache cache(tiny_geometry(), kind);
    for (int lap = 0; lap < 3; ++lap) {
      for (LineAddr line = 0; line < 16; ++line) cache.access(line, false, 0);
    }
    // 16 lines over 4 sets = exactly 4 per set: fits. Laps 2-3 all hit.
    EXPECT_EQ(cache.stats().misses, 16u) << to_string(kind);
    EXPECT_EQ(cache.stats().hits, 32u) << to_string(kind);
  }
}

TEST(Cache, PerRequestorStats) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru, /*requestors=*/2);
  cache.access(0, false, 0);
  cache.access(0, false, 1);  // hit, but attributed to requestor 1
  EXPECT_EQ(cache.stats_for(0).misses, 1u);
  EXPECT_EQ(cache.stats_for(1).hits, 1u);
  EXPECT_EQ(cache.stats().accesses, 2u);
}

TEST(Cache, EvictionAttributedToVictimOwner) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru, 2);
  cache.access(0, false, 0);  // requestor 0 owns line 0 in set 0
  for (LineAddr line = 4; line < 20; line += 4) cache.access(line, false, 1);
  // Requestor 1 filled the set and displaced requestor 0's line.
  EXPECT_EQ(cache.stats_for(0).evictions, 1u);
}

TEST(Cache, ProbeDoesNotPerturb) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru);
  cache.access(8, false, 0);
  EXPECT_TRUE(cache.probe(8));
  EXPECT_FALSE(cache.probe(12));
  EXPECT_EQ(cache.stats().accesses, 1u);  // probes uncounted
}

TEST(Cache, InvalidateRemovesSilently) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru);
  cache.access(8, false, 0);
  EXPECT_TRUE(cache.invalidate(8));
  EXPECT_FALSE(cache.invalidate(8));
  EXPECT_FALSE(cache.probe(8));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, OccupancyByOwner) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru, 2);
  cache.access(0, false, 0);
  cache.access(1, false, 0);
  cache.access(2, false, 1);
  EXPECT_EQ(cache.occupancy(), 3u);
  EXPECT_EQ(cache.occupancy(0), 2u);
  EXPECT_EQ(cache.occupancy(1), 1u);
}

TEST(Cache, ResetRestoresCold) {
  Cache cache(tiny_geometry(), ReplacementKind::Lru);
  cache.access(5, true, 0);
  cache.reset();
  EXPECT_EQ(cache.occupancy(), 0u);
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_FALSE(cache.access(5, false, 0).hit);
}

TEST(Cache, RandomPolicyStaysInBounds) {
  Cache cache(tiny_geometry(), ReplacementKind::Random, 1, /*seed=*/9);
  for (LineAddr line = 0; line < 400; ++line) {
    const auto result = cache.access(line, false, 0);
    EXPECT_LT(result.way, 4u);
    EXPECT_LT(result.set, 4u);
  }
  EXPECT_EQ(cache.occupancy(), 16u);  // full but never over-full
}

}  // namespace
}  // namespace symbiosis::cachesim
