// Property-style checks of the paper's core invariants, phrased directly
// against the text of §2.4/§3.1/§3.3 and exercised on randomized inputs.
#include <gtest/gtest.h>

#include "sched/interference_graph.hpp"
#include "sig/filter_unit.hpp"
#include "util/rng.hpp"

namespace symbiosis {
namespace {

sig::FilterUnitConfig unit_config(std::size_t cores = 2) {
  sig::FilterUnitConfig c;
  c.num_cores = cores;
  c.cache_sets = 64;
  c.cache_ways = 8;  // 512 entries
  c.hash = sig::HashKind::Xor;
  return c;
}

/// §3.1: "the CF is only responsible for tracking memory requests
/// originated from the core to which it was attached."
TEST(PaperInvariants, CoreFilterTracksOnlyItsOwnCore) {
  sig::FilterUnit fu(unit_config(4));
  util::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const sig::LineAddr line = rng();
    fu.on_fill(line, /*core=*/0, rng.next_below(64), rng.next_below(8));
  }
  EXPECT_GT(fu.core_filter_weight(0), 0u);
  for (std::size_t core = 1; core < 4; ++core) {
    EXPECT_EQ(fu.core_filter_weight(core), 0u) << core;
  }
}

/// §3.1: the RBV is monotone in execution — running longer can only add
/// bits (CF bits set since the snapshot), never remove them, as long as no
/// counter drains.
TEST(PaperInvariants, RbvMonotoneWithoutEvictions) {
  sig::FilterUnit fu(unit_config());
  util::Rng rng(2);
  fu.snapshot(0);
  std::size_t previous = 0;
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 30; ++i) {
      const sig::LineAddr line = rng();
      fu.on_fill(line, 0, rng.next_below(64), rng.next_below(8));
    }
    const std::size_t weight = fu.compute_rbv(0).popcount();
    EXPECT_GE(weight, previous);
    previous = weight;
  }
}

/// §3.1: symbiosis is maximal for disjoint footprints and shrinks as the
/// footprints overlap — swept over overlap fractions.
TEST(PaperInvariants, SymbiosisDecreasesWithOverlap) {
  std::size_t last_symbiosis = ~std::size_t{0};
  for (const int shared_lines : {0, 32, 64, 96, 128}) {
    sig::FilterUnit fu(unit_config());
    fu.snapshot(0);
    // Core 0's app touches lines [0, 128); core 1 holds `shared_lines` of
    // those plus enough disjoint lines to keep its footprint constant.
    for (sig::LineAddr line = 0; line < 128; ++line) {
      fu.on_fill(line, 0, line % 64, 0);
    }
    for (int k = 0; k < 128; ++k) {
      const sig::LineAddr line =
          k < shared_lines ? static_cast<sig::LineAddr>(k) : static_cast<sig::LineAddr>(10'000 + k);
      fu.on_fill(line, 1, line % 64, 1);
    }
    const auto rbv = fu.compute_rbv(0);
    const std::size_t symbiosis = fu.symbiosis(rbv, 1);
    EXPECT_LT(symbiosis, last_symbiosis) << shared_lines;
    last_symbiosis = symbiosis;
  }
}

/// §3.3.1: weight sorting is invariant to the input order of the processes
/// (same schedule regardless of how the monitor enumerated them).
TEST(PaperInvariants, WeightSortOrderInvariant) {
  util::Rng rng(3);
  std::vector<sched::TaskProfile> profiles(6);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    profiles[i].task_index = i;
    profiles[i].name = "p" + std::to_string(i);
    profiles[i].occupancy_weight = 100.0 + static_cast<double>(rng.next_below(1000));
    profiles[i].symbiosis_per_core = {100.0, 100.0};
  }
  const auto alloc = sched::make_allocator("weight-sort");
  const sched::Allocation direct = alloc->allocate(profiles, 2);

  // Shuffle, allocate, then un-shuffle the grouping.
  std::vector<std::size_t> order(profiles.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<sched::TaskProfile> shuffled;
  for (const auto idx : order) shuffled.push_back(profiles[idx]);
  const sched::Allocation shuffled_alloc = alloc->allocate(shuffled, 2);

  sched::Allocation unshuffled;
  unshuffled.groups = 2;
  unshuffled.group_of.resize(profiles.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    unshuffled.group_of[order[pos]] = shuffled_alloc.group_of[pos];
  }
  EXPECT_EQ(direct, unshuffled);
}

/// §3.3.3: the weighted graph's edges scale linearly with occupancy —
/// doubling every weight doubles every edge (and leaves the cut unchanged).
TEST(PaperInvariants, WeightedGraphHomogeneous) {
  util::Rng rng(4);
  std::vector<sched::TaskProfile> profiles(4);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    profiles[i].task_index = i;
    profiles[i].occupancy_weight = 50.0 + static_cast<double>(rng.next_below(500));
    profiles[i].last_core = i % 2;
    profiles[i].symbiosis_per_core = {10.0 + static_cast<double>(rng.next_below(400)),
                                      10.0 + static_cast<double>(rng.next_below(400))};
  }
  const auto w1 = sched::build_interference_graph(profiles, true);
  for (auto& p : profiles) p.occupancy_weight *= 2.0;
  const auto w2 = sched::build_interference_graph(profiles, true);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_NEAR(w2.at(i, j), 2.0 * w1.at(i, j), 1e-9);
    }
  }
}

/// §5.4 sampling: an unsampled unit and a 25%-sampled unit agree exactly on
/// the sampled subset of events (sampling drops information, never distorts
/// what it keeps).
TEST(PaperInvariants, SamplingIsASubsetNotADistortion) {
  sig::FilterUnitConfig full_cfg = unit_config();
  sig::FilterUnitConfig sampled_cfg = unit_config();
  sampled_cfg.sample_shift = 2;
  sig::FilterUnit full(full_cfg), sampled(sampled_cfg);

  util::Rng rng(5);
  full.snapshot(0);
  sampled.snapshot(0);
  for (int i = 0; i < 3000; ++i) {
    const sig::LineAddr line = rng();
    const std::size_t set = rng.next_below(64);
    const std::size_t way = rng.next_below(8);
    full.on_fill(line, 0, set, way);
    sampled.on_fill(line, 0, set, way);
  }
  // Every bit the sampled unit set must also be set in the full unit (the
  // index hash is identical; only the sampled-set filter differs... the
  // entries counts differ, so compare via weights instead).
  EXPECT_LE(sampled.core_filter_weight(0), full.core_filter_weight(0));
  EXPECT_GT(sampled.core_filter_weight(0), 0u);
}

}  // namespace
}  // namespace symbiosis
