#include "sched/policy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sched/interference_graph.hpp"

namespace symbiosis::sched {
namespace {

TaskProfile profile(std::size_t index, double weight, std::vector<double> symbiosis,
                    std::size_t last_core = 0, double mpki = 0.0) {
  TaskProfile p;
  p.task_index = index;
  p.pid = index;
  p.name = "p" + std::to_string(index);
  p.occupancy_weight = weight;
  p.symbiosis_per_core = std::move(symbiosis);
  p.last_core = last_core;
  p.l2_misses_per_kilo_instr = mpki;
  return p;
}

TEST(WeightSort, GroupsHeaviestTogether) {
  // §3.3.1: sorted by weight, chunked. Weights 40,10,35,5 -> {0,2} {1,3}.
  std::vector<TaskProfile> profiles = {
      profile(0, 40, {0, 0}), profile(1, 10, {0, 0}),
      profile(2, 35, {0, 0}), profile(3, 5, {0, 0}),
  };
  const Allocation result = make_allocator("weight-sort")->allocate(profiles, 2);
  EXPECT_EQ(result.group_of[0], result.group_of[2]);
  EXPECT_EQ(result.group_of[1], result.group_of[3]);
  EXPECT_NE(result.group_of[0], result.group_of[1]);
}

TEST(WeightSort, CeilGroupSize) {
  // 5 tasks / 2 cores: group size ⌈5/2⌉ = 3; top-3 weights share a core.
  std::vector<TaskProfile> profiles = {
      profile(0, 50, {0, 0}), profile(1, 40, {0, 0}), profile(2, 30, {0, 0}),
      profile(3, 20, {0, 0}), profile(4, 10, {0, 0}),
  };
  const Allocation result = make_allocator("weight-sort")->allocate(profiles, 2);
  EXPECT_EQ(result.members(0).size(), 3u);
  EXPECT_EQ(result.group_of[0], result.group_of[1]);
  EXPECT_EQ(result.group_of[1], result.group_of[2]);
}

TEST(WeightSort, StableOnTies) {
  std::vector<TaskProfile> profiles = {
      profile(0, 10, {0, 0}), profile(1, 10, {0, 0}),
      profile(2, 10, {0, 0}), profile(3, 10, {0, 0}),
  };
  const Allocation result = make_allocator("weight-sort")->allocate(profiles, 2);
  // Stable sort keeps index order: {0,1} and {2,3}.
  EXPECT_EQ(result.group_of[0], result.group_of[1]);
  EXPECT_EQ(result.group_of[2], result.group_of[3]);
}

TEST(DefaultAllocator, RoundRobins) {
  std::vector<TaskProfile> profiles(5);
  const Allocation result = DefaultAllocator().allocate(profiles, 2);
  EXPECT_EQ(result.group_of, (std::vector<std::size_t>{0, 1, 0, 1, 0}));
}

TEST(RandomAllocator, BalancedAndSeeded) {
  std::vector<TaskProfile> profiles(8);
  RandomAllocator a(5), b(5), c(6);
  const Allocation ra = a.allocate(profiles, 2);
  EXPECT_EQ(ra.members(0).size(), 4u);
  EXPECT_EQ(ra.group_of, b.allocate(profiles, 2).group_of);  // same seed
  // Different seeds should (almost surely) differ on 8 tasks.
  EXPECT_NE(ra.group_of, c.allocate(profiles, 2).group_of);
}

TEST(MissRateAllocator, GroupsByMpki) {
  std::vector<TaskProfile> profiles = {
      profile(0, 0, {0, 0}, 0, 9.0), profile(1, 0, {0, 0}, 0, 0.1),
      profile(2, 0, {0, 0}, 0, 7.0), profile(3, 0, {0, 0}, 0, 0.2),
  };
  const Allocation result = make_allocator("miss-rate")->allocate(profiles, 2);
  EXPECT_EQ(result.group_of[0], result.group_of[2]);  // the two missers
  EXPECT_EQ(result.group_of[1], result.group_of[3]);
}

TEST(InterferenceGraph, ConsolidationMatchesHandComputation) {
  // P0 on C0, P1 on C1. Edge(P0,P1) = I_{P0,C1} + I_{P1,C0}
  //   = 1/sym(P0,C1) + 1/sym(P1,C0) = 1/50 + 1/25.
  std::vector<TaskProfile> profiles = {
      profile(0, 10, {100, 50}, 0),
      profile(1, 20, {25, 80}, 1),
  };
  const SymMatrix plain = build_interference_graph(profiles, false);
  EXPECT_NEAR(plain.at(0, 1), 1.0 / 50 + 1.0 / 25, 1e-12);
  // §3.3.3 weighting: W0*I01 + W1*I10.
  const SymMatrix weighted = build_interference_graph(profiles, true);
  EXPECT_NEAR(weighted.at(0, 1), 10.0 / 50 + 20.0 / 25, 1e-12);
}

TEST(InterferenceGraph, LowSymbiosisClampsToMaxInterference) {
  std::vector<TaskProfile> profiles = {
      profile(0, 10, {0.5, 0.0}, 0),
      profile(1, 10, {0.2, 0.3}, 1),
  };
  const SymMatrix w = build_interference_graph(profiles, false);
  EXPECT_NEAR(w.at(0, 1), 2.0, 1e-12);  // both directions clamp at 1.0
}

TEST(GraphAllocators, GroupHostilePairs) {
  // P0/P1 mutually hostile (low symbiosis with each other's cores), P2/P3
  // benign: both graph algorithms must co-locate the hostile pair.
  std::vector<TaskProfile> profiles = {
      profile(0, 1000, {3000, 5}, 0),  // hates core 1 (where P1 lives)
      profile(1, 900, {5, 3000}, 1),   // hates core 0... (symmetrised below)
      profile(2, 50, {3000, 3000}, 0),
      profile(3, 40, {3000, 3000}, 1),
  };
  // Fix: P1's hostility must target core 0 (P0's core).
  profiles[1].symbiosis_per_core = {5, 3000};
  profiles[1].last_core = 1;
  // P0 on core 0 is hostile to core 1: symbiosis {3000, 5}.
  for (const char* name : {"graph", "weighted-graph"}) {
    const Allocation result = make_allocator(name)->allocate(profiles, 2);
    EXPECT_EQ(result.group_of[0], result.group_of[1]) << name;
    EXPECT_EQ(result.group_of[2], result.group_of[3]) << name;
  }
}

TEST(WeightedGraph, WeightSuppressesTinyProcesses) {
  // §3.3.3's motivation: a near-empty process with low symbiosis (because
  // its RBV is tiny) must NOT be treated as a heavy interferer.
  // P1 is alone on core 0, so P2's hostility toward core 0 unambiguously
  // targets P1 (with several processes per core the paper's per-core
  // attribution makes same-core processes interchangeable).
  std::vector<TaskProfile> tiny_noise = {
      profile(0, 2, {3, 3}, 1),          // tiny RBV -> tiny symbiosis everywhere
      profile(1, 1000, {2000, 40}, 0),   // on core 0, hates core 1 (P2's)
      profile(2, 900, {40, 2000}, 1),    // on core 1, hates core 0 (P1's)
      profile(3, 3, {2500, 2500}, 1),
  };
  const Allocation weighted = GraphAllocator(/*weighted=*/true).allocate(tiny_noise, 2);
  // The two heavy mutually-hostile processes pair up despite the noisy tiny
  // process having the numerically highest raw interference.
  EXPECT_EQ(weighted.group_of[1], weighted.group_of[2]);
}

TEST(Registry, KnownNamesAndErrors) {
  for (const char* name : {"default", "random", "miss-rate", "weight-sort", "graph",
                           "weighted-graph", "multithread"}) {
    EXPECT_EQ(make_allocator(name)->name(), name);
  }
  EXPECT_THROW(make_allocator("oracle"), std::invalid_argument);
}

TEST(Policies, Validation) {
  std::vector<TaskProfile> profiles(2);
  EXPECT_THROW(make_allocator("weight-sort")->allocate(profiles, 0), std::invalid_argument);
  EXPECT_THROW(make_allocator("miss-rate")->allocate(profiles, 0), std::invalid_argument);
  EXPECT_THROW(GraphAllocator(/*weighted=*/false).allocate(profiles, 3), std::invalid_argument);
  EXPECT_THROW(DefaultAllocator().allocate(profiles, 0), std::invalid_argument);
}

}  // namespace
}  // namespace symbiosis::sched
