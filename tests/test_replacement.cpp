#include "cachesim/replacement.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>

#include "util/rng.hpp"

namespace symbiosis::cachesim {
namespace {

TEST(Replacement, LruMatchesReferenceModel) {
  const std::size_t ways = 8;
  Replacement policy(ReplacementKind::Lru, 1, ways);
  std::deque<std::size_t> stack;  // front = LRU
  for (std::size_t w = 0; w < ways; ++w) {
    policy.on_fill(0, w);
    stack.push_back(w);
  }
  util::Rng rng(1);
  for (int step = 0; step < 2000; ++step) {
    if (rng.next_bool(0.7)) {
      const std::size_t w = rng.next_below(ways);
      policy.on_touch(0, w);
      std::erase(stack, w);
      stack.push_back(w);
    } else {
      const std::size_t victim = policy.victim_in(0, 0, ways);
      EXPECT_EQ(victim, stack.front());
      policy.on_fill(0, victim);
      stack.pop_front();
      stack.push_back(victim);
    }
  }
}

TEST(Replacement, FifoIgnoresTouches) {
  Replacement policy(ReplacementKind::Fifo, 1, 4);
  for (std::size_t w = 0; w < 4; ++w) policy.on_fill(0, w);
  policy.on_touch(0, 0);  // must not refresh
  EXPECT_EQ(policy.victim_in(0, 0, 4), 0u);
  policy.on_fill(0, 0);
  EXPECT_EQ(policy.victim_in(0, 0, 4), 1u);
}

TEST(Replacement, TreePlruNeverVictimizesJustTouched) {
  const std::size_t ways = 8;
  Replacement policy(ReplacementKind::TreePlru, 2, ways);
  util::Rng rng(2);
  for (std::size_t w = 0; w < ways; ++w) policy.on_fill(1, w);
  for (int step = 0; step < 500; ++step) {
    const std::size_t touched = rng.next_below(ways);
    policy.on_touch(1, touched);
    EXPECT_NE(policy.victim_in(1, 0, ways), touched);
  }
}

TEST(Replacement, TreePlruRequiresPow2Ways) {
  EXPECT_THROW(Replacement(ReplacementKind::TreePlru, 1, 6), std::invalid_argument);
  EXPECT_NO_THROW(Replacement(ReplacementKind::TreePlru, 1, 16));
}

TEST(Replacement, SetsAreIndependent) {
  Replacement policy(ReplacementKind::Lru, 2, 2);
  policy.on_fill(0, 0);
  policy.on_fill(0, 1);
  policy.on_fill(1, 0);
  policy.on_fill(1, 1);
  policy.on_touch(0, 0);  // set 0: victim should now be way 1
  EXPECT_EQ(policy.victim_in(0, 0, 2), 1u);
  EXPECT_EQ(policy.victim_in(1, 0, 2), 0u);  // set 1 unaffected
}

TEST(Replacement, RandomIsBoundedAndSeeded) {
  Replacement a(ReplacementKind::Random, 1, 4, 7);
  Replacement b(ReplacementKind::Random, 1, 4, 7);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.victim_in(0, 0, 4);
    EXPECT_LT(va, 4u);
    EXPECT_EQ(va, b.victim_in(0, 0, 4));  // same seed, same stream
  }
}

TEST(Replacement, ResetRestartsState) {
  Replacement policy(ReplacementKind::Lru, 1, 4);
  for (std::size_t w = 0; w < 4; ++w) policy.on_fill(0, w);
  policy.on_touch(0, 0);
  policy.reset();
  // After reset everything is equally old; victim is the lowest way.
  EXPECT_EQ(policy.victim_in(0, 0, 4), 0u);
}

TEST(Replacement, NameRoundTrip) {
  for (const auto kind : {ReplacementKind::Lru, ReplacementKind::Fifo, ReplacementKind::Random,
                          ReplacementKind::TreePlru, ReplacementKind::Srrip}) {
    EXPECT_EQ(parse_replacement(to_string(kind)), kind);
  }
  EXPECT_THROW((void)parse_replacement("mru"), std::invalid_argument);
}

TEST(Replacement, SrripInsertsDistantAndPromotesOnHit) {
  // 4 ways, SRRIP-HP: fills land at RRPV kMax-1, so with no hits the victim
  // rotation is way 0, 1, 2, 3 (aging makes all distant, lowest way wins).
  Replacement policy(ReplacementKind::Srrip, 1, 4);
  for (std::size_t w = 0; w < 4; ++w) policy.on_fill(0, w);
  EXPECT_EQ(policy.victim_in(0, 0, 4), 0u);
  policy.on_fill(0, 0);
  EXPECT_EQ(policy.victim_in(0, 0, 4), 1u);
  policy.on_fill(0, 1);
  // A hit resets way 2 to RRPV 0: it now outlives ways 3 (still aged to max
  // from the earlier scans) and the fresh fills.
  policy.on_touch(0, 2);
  EXPECT_EQ(policy.victim_in(0, 0, 4), 3u);
  policy.on_fill(0, 3);
  EXPECT_NE(policy.victim_in(0, 0, 4), 2u) << "the recently hit way must not be the next victim";
}

TEST(Replacement, SrripVictimAgesUntilOneIsDistant) {
  Replacement policy(ReplacementKind::Srrip, 1, 2);
  policy.on_fill(0, 0);
  policy.on_fill(0, 1);
  policy.on_touch(0, 0);  // way 0 -> RRPV 0, way 1 stays at 2
  // Victim scan must age both until way 1 reaches max first.
  EXPECT_EQ(policy.victim_in(0, 0, 2), 1u);
  policy.on_fill(0, 1);
  // Way 0 was aged by one during that scan but remains closer than way 1.
  EXPECT_EQ(policy.victim_in(0, 0, 2), 1u);
}

TEST(Replacement, SrripResetRestartsDistant) {
  Replacement policy(ReplacementKind::Srrip, 1, 4);
  for (std::size_t w = 0; w < 4; ++w) policy.on_fill(0, w);
  policy.on_touch(0, 2);
  policy.reset();
  // All RRPVs back at max: the victim is the lowest way again.
  EXPECT_EQ(policy.victim_in(0, 0, 4), 0u);
}

TEST(Replacement, VictimInRespectsSubRanges) {
  // Deterministic policies confined to [begin, end) must never name a
  // victim outside it, for every contiguous sub-range.
  const std::size_t ways = 8;
  for (const auto kind :
       {ReplacementKind::Lru, ReplacementKind::Fifo, ReplacementKind::Random,
        ReplacementKind::Srrip}) {
    Replacement policy(kind, 1, ways, 5);
    for (std::size_t w = 0; w < ways; ++w) policy.on_fill(0, w);
    util::Rng rng(23);
    for (int step = 0; step < 1000; ++step) {
      const std::size_t begin = rng.next_below(ways);
      const std::size_t end = begin + 1 + rng.next_below(ways - begin);
      const std::size_t v = policy.victim_in(0, begin, end);
      ASSERT_GE(v, begin) << to_string(kind);
      ASSERT_LT(v, end) << to_string(kind);
      policy.on_fill(0, v);
    }
  }
}

}  // namespace
}  // namespace symbiosis::cachesim
