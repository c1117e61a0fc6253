// Tests for the split-CBF signature unit (§3.1), including a worked
// re-enactment of the paper's Figure 6(b) protocol.
#include "sig/filter_unit.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace symbiosis::sig {
namespace {

FilterUnitConfig small_config() {
  FilterUnitConfig c;
  c.num_cores = 2;
  c.cache_sets = 16;
  c.cache_ways = 4;  // 64 entries
  c.counter_bits = 3;
  c.hash = HashKind::Modulo;  // index == line % 64: transparent for tests
  return c;
}

TEST(FilterUnit, FillSetsCfAndCounter) {
  FilterUnit fu(small_config());
  fu.on_fill(/*line=*/5, /*core=*/0, /*set=*/5, /*way=*/0);
  EXPECT_TRUE(fu.core_filter(0).test(5));
  EXPECT_FALSE(fu.core_filter(1).test(5));
  EXPECT_EQ(fu.counter_at(5), 1);
  EXPECT_EQ(fu.core_filter_weight(0), 1u);
}

TEST(FilterUnit, EvictClearsAllCfsWhenCounterDrains) {
  FilterUnit fu(small_config());
  // Two lines aliasing to index 5 (5 and 69), filled by different cores.
  fu.on_fill(5, 0, 5, 0);
  fu.on_fill(69, 1, 5, 1);
  EXPECT_EQ(fu.counter_at(5), 2);
  fu.on_evict(5, 5, 0);
  // Counter still 1: CF bits survive (this is §3.1's documented
  // inaccuracy — core 0's line is gone but its bit lingers).
  EXPECT_TRUE(fu.core_filter(0).test(5));
  EXPECT_TRUE(fu.core_filter(1).test(5));
  fu.on_evict(69, 5, 1);
  EXPECT_EQ(fu.counter_at(5), 0);
  EXPECT_FALSE(fu.core_filter(0).test(5));
  EXPECT_FALSE(fu.core_filter(1).test(5));
}

TEST(FilterUnit, RbvIsNewBitsSinceSnapshot) {
  FilterUnit fu(small_config());
  // Pre-existing state on core 0.
  fu.on_fill(1, 0, 1, 0);
  fu.on_fill(2, 0, 2, 0);
  fu.snapshot(0);  // context switch: App2 in
  fu.on_fill(3, 0, 3, 0);
  fu.on_fill(2, 0, 2, 1);  // re-touches an already-set bit: not "new"
  const BitVector rbv = fu.compute_rbv(0);
  EXPECT_FALSE(rbv.test(1));
  EXPECT_FALSE(rbv.test(2));
  EXPECT_TRUE(rbv.test(3));
  EXPECT_EQ(rbv.popcount(), 1u);
}

TEST(FilterUnit, SymbiosisMatchesManualXor) {
  FilterUnit fu(small_config());
  // Core 0 runs app A: lines {1,2,3}. Core 1 holds lines {3,4}.
  fu.snapshot(0);
  fu.on_fill(1, 0, 1, 0);
  fu.on_fill(2, 0, 2, 0);
  fu.on_fill(3, 0, 3, 0);
  fu.on_fill(3, 1, 3, 1);
  fu.on_fill(4, 1, 4, 0);
  const BitVector rbv = fu.compute_rbv(0);  // {1,2,3}
  // XOR with CF1 {3,4}: {1,2,4} -> symbiosis 3.
  EXPECT_EQ(fu.symbiosis(rbv, 1), 3u);
  // XOR with CF0 {1,2,3}: empty -> 0 (the self-degeneracy; see
  // self_symbiosis below).
  EXPECT_EQ(fu.symbiosis(rbv, 0), 0u);
}

TEST(FilterUnit, SelfSymbiosisComparesAgainstLastFilter) {
  FilterUnit fu(small_config());
  // Co-resident left lines {7,8} on core 0; then our app runs {8,9}.
  fu.on_fill(7, 0, 7, 0);
  fu.on_fill(8, 0, 8, 0);
  fu.snapshot(0);  // LF0 = {7,8}
  fu.on_fill(9, 0, 9, 0);
  fu.on_fill(8, 0, 8, 1);
  const BitVector rbv = fu.compute_rbv(0);  // {9}
  // XOR(RBV {9}, LF {7,8}) = {7,8,9} -> 3.
  EXPECT_EQ(fu.self_symbiosis(rbv, 0), 3u);
}

TEST(FilterUnit, Figure6bProtocol) {
  // End-to-end context-switch protocol: App1 runs on core 0 while core 1
  // holds a disjoint and an overlapping working set; App1's symbiosis with
  // core 1 must rank the disjoint configuration higher.
  FilterUnitConfig cfg = small_config();
  FilterUnit fu(cfg);

  // Scenario A: core 1 holds lines disjoint from App1's.
  fu.snapshot(0);
  for (const LineAddr line : {1, 2, 3}) fu.on_fill(line, 0, line % 16, 0);
  for (const LineAddr line : {20, 21, 22}) fu.on_fill(line, 1, line % 16, 0);
  const auto rbv_a = fu.compute_rbv(0);
  const std::size_t sym_disjoint = fu.symbiosis(rbv_a, 1);

  fu.reset();

  // Scenario B: core 1 holds exactly App1's lines.
  fu.snapshot(0);
  for (const LineAddr line : {1, 2, 3}) {
    fu.on_fill(line, 0, line % 16, 0);
    fu.on_fill(line, 1, line % 16, 1);
  }
  const auto rbv_b = fu.compute_rbv(0);
  const std::size_t sym_overlap = fu.symbiosis(rbv_b, 1);

  EXPECT_GT(sym_disjoint, sym_overlap);  // high symbiosis = low interference
  EXPECT_EQ(sym_disjoint, 6u);           // {1,2,3} XOR {20,21,22} mod 64
  EXPECT_EQ(sym_overlap, 0u);
}

TEST(FilterUnit, SamplingTracksOnlySampledSets) {
  FilterUnitConfig cfg = small_config();
  cfg.sample_shift = 2;  // 25% sampling: sets 0,4,8,12
  FilterUnit fu(cfg);
  EXPECT_EQ(fu.entries(), 16u);  // (16 >> 2) * 4 ways
  fu.on_fill(100, 0, /*set=*/4, 0);
  EXPECT_EQ(fu.core_filter_weight(0), 1u);
  fu.on_fill(101, 0, /*set=*/5, 0);  // unsampled set: ignored
  EXPECT_EQ(fu.core_filter_weight(0), 1u);
}

TEST(FilterUnit, PresenceModeIsPositional) {
  FilterUnitConfig cfg = small_config();
  cfg.hash = HashKind::Presence;
  FilterUnit fu(cfg);
  // Line address is irrelevant; (set, way) decides the bit.
  fu.on_fill(0xdeadbeef, 0, /*set=*/3, /*way=*/2);
  EXPECT_TRUE(fu.core_filter(0).test(3 * 4 + 2));
  // Eviction of that slot clears it exactly (presence bits are exact).
  fu.on_evict(0xdeadbeef, 3, 2);
  EXPECT_FALSE(fu.core_filter(0).test(3 * 4 + 2));
}

TEST(FilterUnit, CounterSaturationSticks) {
  FilterUnitConfig cfg = small_config();
  cfg.counter_bits = 1;  // saturates at 1
  FilterUnit fu(cfg);
  fu.on_fill(5, 0, 5, 0);
  fu.on_fill(69, 0, 5, 1);  // same index, saturated
  EXPECT_EQ(fu.saturated_counters(), 1u);
  fu.on_evict(5, 5, 0);  // stuck at max: no decrement
  EXPECT_TRUE(fu.core_filter(0).test(5));
}

TEST(FilterUnit, ResetClearsEverything) {
  FilterUnit fu(small_config());
  fu.on_fill(1, 0, 1, 0);
  fu.snapshot(0);
  fu.reset();
  EXPECT_EQ(fu.core_filter_weight(0), 0u);
  EXPECT_EQ(fu.compute_rbv(0).popcount(), 0u);
  EXPECT_EQ(fu.counter_at(1), 0);
}

TEST(FilterUnit, Validation) {
  FilterUnitConfig cfg = small_config();
  cfg.num_cores = 0;
  EXPECT_THROW(FilterUnit{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.cache_sets = 15;
  EXPECT_THROW(FilterUnit{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.counter_bits = 0;
  EXPECT_THROW(FilterUnit{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.sample_shift = 10;
  EXPECT_THROW(FilterUnit{cfg}, std::invalid_argument);
  // Rejected before entries() or sampled() shifts by it: a shift of 64 is
  // undefined behaviour.
  cfg = small_config();
  cfg.sample_shift = 64;
  EXPECT_THROW(FilterUnit{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.counter_bits = 17;
  EXPECT_THROW(FilterUnit{cfg}, std::invalid_argument);
  for (const unsigned k : {0u, 9u}) {
    cfg = small_config();
    cfg.hash_functions = k;
    EXPECT_THROW(FilterUnit{cfg}, std::invalid_argument) << "k = " << k;
  }
  // log2(16 sets) = 4 is the largest legal shift: one sampled set.
  cfg = small_config();
  cfg.sample_shift = 4;
  EXPECT_EQ(FilterUnit{cfg}.entries(), 4u);
}

TEST(FilterUnit, MoreHashesFillTheCoreFilterFaster) {
  // §2.4 / §5.3: every extra hash function sets another CF bit per fill, so
  // a small filter saturates sooner with k = 4 than with k = 1 (the Fig 14
  // k = 2 ablation rests on this).
  FilterUnitConfig cfg = small_config();
  cfg.cache_sets = 128;  // 512 entries
  cfg.hash = HashKind::Xor;
  FilterUnit k1(cfg);
  cfg.hash_functions = 4;
  FilterUnit k4(cfg);
  util::Rng rng(3);
  for (std::size_t i = 0; i < 300; ++i) {
    const LineAddr line = rng();
    k1.on_fill(line, 0, i % 128, 0);
    k4.on_fill(line, 0, i % 128, 0);
  }
  EXPECT_GT(k4.core_filter_fill(0), k1.core_filter_fill(0));
}

TEST(FilterUnit, FillRatioDiagnostics) {
  FilterUnit fu(small_config());
  for (LineAddr line = 0; line < 32; ++line) fu.on_fill(line, 0, line % 16, 0);
  EXPECT_DOUBLE_EQ(fu.core_filter_fill(0), 0.5);
  EXPECT_DOUBLE_EQ(fu.core_filter_fill(1), 0.0);
}

}  // namespace
}  // namespace symbiosis::sig
