#include "sched/mincut.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace symbiosis::sched {
namespace {

/// Two hostile pairs: (0,1) and (2,3) interfere heavily; everything else is
/// light. The optimal balanced MIN-CUT keeps each hostile pair together.
SymMatrix two_cliques() {
  SymMatrix w(4);
  w.set(0, 1, 10.0);
  w.set(2, 3, 10.0);
  w.set(0, 2, 1.0);
  w.set(0, 3, 1.5);
  w.set(1, 2, 0.5);
  w.set(1, 3, 1.0);
  return w;
}

/// A planted partition over 2k nodes: intra-block weight high + noise.
SymMatrix planted(std::size_t n, util::Rng& rng) {
  SymMatrix w(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool same_block = (i < n / 2) == (j < n / 2);
      w.set(i, j, (same_block ? 5.0 : 0.5) + rng.next_double() * 0.2);
    }
  }
  return w;
}

TEST(MinCut, CutAndIntraPartitionTotal) {
  const SymMatrix w = two_cliques();
  Allocation a;
  a.groups = 2;
  a.group_of = {0, 0, 1, 1};
  const double total = 10 + 10 + 1 + 1.5 + 0.5 + 1;
  EXPECT_DOUBLE_EQ(cut_weight(w, a) + intra_weight(w, a), total);
  EXPECT_DOUBLE_EQ(intra_weight(w, a), 20.0);
  EXPECT_DOUBLE_EQ(cut_weight(w, a), 4.0);
}

class MinCutMethodTest : public testing::TestWithParam<MinCutMethod> {};

TEST_P(MinCutMethodTest, SolvesTwoCliques) {
  const SymMatrix w = two_cliques();
  const Allocation result = balanced_min_cut(w, 2, GetParam(), 7);
  EXPECT_EQ(result.group_of[0], result.group_of[1]);
  EXPECT_EQ(result.group_of[2], result.group_of[3]);
  EXPECT_NE(result.group_of[0], result.group_of[2]);
}

TEST_P(MinCutMethodTest, ProducesBalancedGroups) {
  util::Rng rng(11);
  const SymMatrix w = planted(10, rng);
  const Allocation result = balanced_min_cut(w, 2, GetParam(), 3);
  EXPECT_EQ(result.members(0).size(), 5u);
  EXPECT_EQ(result.members(1).size(), 5u);
}

TEST_P(MinCutMethodTest, RecoversPlantedPartition) {
  util::Rng rng(13);
  const SymMatrix w = planted(12, rng);
  const Allocation result = balanced_min_cut(w, 2, GetParam(), 5);
  // All of block {0..5} together, {6..11} together.
  for (std::size_t i = 1; i < 6; ++i) EXPECT_EQ(result.group_of[i], result.group_of[0]);
  for (std::size_t i = 7; i < 12; ++i) EXPECT_EQ(result.group_of[i], result.group_of[6]);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MinCutMethodTest,
                         testing::Values(MinCutMethod::Exhaustive, MinCutMethod::Greedy,
                                         MinCutMethod::KernighanLin, MinCutMethod::Spectral,
                                         MinCutMethod::Auto),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(MinCut, HeuristicsNearOptimalOnRandomGraphs) {
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    SymMatrix w(8);
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t j = i + 1; j < 8; ++j) w.set(i, j, rng.next_double());
    }
    const double optimal = cut_weight(w, balanced_min_cut(w, 2, MinCutMethod::Exhaustive));
    const double kl = cut_weight(w, balanced_min_cut(w, 2, MinCutMethod::KernighanLin));
    const double spectral = cut_weight(w, balanced_min_cut(w, 2, MinCutMethod::Spectral, trial));
    EXPECT_LE(optimal, kl + 1e-9);
    EXPECT_LE(kl, optimal * 1.35 + 1e-9) << "KL strayed far from optimal";
    EXPECT_LE(spectral, optimal * 1.35 + 1e-9) << "spectral strayed far from optimal";
  }
}

TEST(MinCut, HierarchicalFourWay) {
  // Four hostile pairs over 8 nodes; 4 groups must keep each pair together
  // (this is §3.3.2's quad-core recursion).
  SymMatrix w(8);
  for (std::size_t p = 0; p < 4; ++p) w.set(2 * p, 2 * p + 1, 10.0 + static_cast<double>(p));
  util::Rng rng(19);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) {
      if (w.at(i, j) == 0.0) w.set(i, j, rng.next_double() * 0.1);
    }
  }
  for (const auto method : {MinCutMethod::Auto, MinCutMethod::KernighanLin}) {
    const Allocation result = balanced_min_cut(w, 4, method, 23);
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(result.group_of[2 * p], result.group_of[2 * p + 1]) << to_string(method);
      EXPECT_EQ(result.members(p).size(), 2u);
    }
  }
}

TEST(MinCut, SingleGroupIsTrivial) {
  const SymMatrix w = two_cliques();
  const Allocation result = balanced_min_cut(w, 1);
  EXPECT_EQ(result.groups, 1u);
  for (const auto g : result.group_of) EXPECT_EQ(g, 0u);
}

TEST(MinCut, Validation) {
  const SymMatrix w = two_cliques();
  EXPECT_THROW(balanced_min_cut(w, 0), std::invalid_argument);
  EXPECT_THROW(balanced_min_cut(w, 5), std::invalid_argument);
}

TEST(MinCut, DegenerateUniformGraphStillBalances) {
  SymMatrix w(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) w.set(i, j, 1.0);
  }
  for (const auto method : {MinCutMethod::Greedy, MinCutMethod::KernighanLin,
                            MinCutMethod::Spectral}) {
    const Allocation result = balanced_min_cut(w, 2, method, 29);
    EXPECT_EQ(result.members(0).size(), 3u) << to_string(method);
  }
}

}  // namespace
}  // namespace symbiosis::sched
