// Differential geometry-equivalence suite for the composable cache graph.
//
// The hierarchy refactor (per-core L1s -> per-cluster L2s -> optional shared
// L3) promises that its DEGENERATE topologies — one shared L2, or all-private
// L2s, no L3, no partitions — are bit-identical to the pre-graph two-level
// implementation. This suite replays tens of thousands of randomized
// accesses (interleaved cores, context switches, write mix) through the
// optimised Hierarchy and through testref::ReferenceTwoLevelHierarchy, the
// deliberately naive model of the legacy semantics, and requires every
// MemAccessResult field, cache counter, TLB counter and signature-filter
// state to agree exactly. It also pins SRRIP against its naive model and
// proves batched replay chunk-size-invariant on a full 3-level topology.
//
// Runs under the plain, asan-ubsan and tsan presets (part of
// symbiosis_tests); the TopologyMatrix cases are additionally registered
// standalone under the "topology-matrix" ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "reference/reference_kernels.hpp"
#include "util/rng.hpp"

namespace symbiosis {
namespace {

constexpr std::size_t kAccesses = 12000;

void expect_mem_result_eq(const cachesim::MemAccessResult& got,
                          const cachesim::MemAccessResult& want, std::size_t i) {
  ASSERT_EQ(got.cycles, want.cycles) << "access " << i;
  ASSERT_EQ(got.l1_hit, want.l1_hit) << "access " << i;
  ASSERT_EQ(got.l2_hit, want.l2_hit) << "access " << i;
  ASSERT_EQ(got.l3_hit, want.l3_hit) << "access " << i;
  ASSERT_EQ(got.tlb_hit, want.tlb_hit) << "access " << i;
  ASSERT_EQ(got.stream_prefetched, want.stream_prefetched) << "access " << i;
}

void expect_cache_stats_eq(const cachesim::CacheStats& got, const cachesim::CacheStats& want,
                           const char* label) {
  EXPECT_EQ(got.accesses, want.accesses) << label;
  EXPECT_EQ(got.hits, want.hits) << label;
  EXPECT_EQ(got.misses, want.misses) << label;
  EXPECT_EQ(got.evictions, want.evictions) << label;
  EXPECT_EQ(got.writebacks, want.writebacks) << label;
}

/// Replay one randomized trace through the graph Hierarchy and the naive
/// two-level reference, asserting bit-identity access by access and on every
/// end-of-run counter. @p config must be a degenerate topology.
void run_degenerate_differential(const cachesim::HierarchyConfig& config, std::uint64_t seed) {
  ASSERT_TRUE(config.degenerate());
  cachesim::Hierarchy opt(config);
  testref::ReferenceTwoLevelHierarchy ref(config);

  util::Rng rng(seed);
  for (std::size_t i = 0; i < kAccesses; ++i) {
    const auto core = static_cast<std::size_t>(rng.next_below(config.num_cores));
    // Narrow region + occasional strided runs: L1/L2 conflict pressure,
    // stream-detector locks, TLB churn all happen constantly.
    cachesim::Addr addr;
    if (rng.next_bool(0.3)) {
      addr = (i % 512) * config.l1.line_bytes;  // strided scan segments
    } else {
      addr = rng.next_below(256 * 1024);
    }
    const bool is_write = rng.next_bool(0.3);
    const cachesim::MemAccessResult got = opt.access(core, addr, is_write);
    const cachesim::MemAccessResult want = ref.access(core, addr, is_write);
    expect_mem_result_eq(got, want, i);

    if (rng.next_below(500) == 0) {
      const auto switched = static_cast<std::size_t>(rng.next_below(config.num_cores));
      opt.on_context_switch_in(switched);
      ref.on_context_switch_in(switched);
    }
  }

  for (std::size_t core = 0; core < config.num_cores; ++core) {
    expect_cache_stats_eq(opt.l1(core).stats(), ref.l1(core).stats(), "l1 total");
    expect_cache_stats_eq(opt.l2(core).stats(), ref.l2(core).stats(), "l2 total");
    expect_cache_stats_eq(opt.l2(core).stats_for(core), ref.l2(core).stats_for(core),
                          "l2 per-requestor");
    EXPECT_EQ(opt.tlb(core).hits(), ref.tlb(core).hits()) << "core " << core;
    EXPECT_EQ(opt.tlb(core).misses(), ref.tlb(core).misses()) << "core " << core;
    EXPECT_EQ(opt.l2_footprint(core),
              ref.l2(core).occupancy(config.shared_l2 ? core : cachesim::Cache::kAnyRequestor));
  }

  // Signature state: the optimised word-parallel filter agrees with the
  // std::set reference on every core's CF weight and RBV.
  if (config.signature.enabled && config.shared_l2) {
    ASSERT_NE(opt.filter(), nullptr);
    ASSERT_NE(ref.filter(), nullptr);
    for (std::size_t core = 0; core < config.num_cores; ++core) {
      EXPECT_EQ(opt.filter()->core_filter_weight(core), ref.filter()->cf(core).size());
      EXPECT_EQ(opt.filter()->compute_rbv(core).popcount(), ref.filter()->rbv(core).size());
    }
  }
}

cachesim::HierarchyConfig tiny_shared_config() {
  cachesim::HierarchyConfig c;
  c.num_cores = 2;
  c.l1 = {1024, 2, 64};      // 8 sets x 2 ways
  c.l2 = {8 * 1024, 4, 64};  // 32 sets x 4 ways
  c.shared_l2 = true;
  c.tlb_entries = 8;
  return c;
}

TEST(DifferentialHierarchy, SharedL2DegenerateMatchesLegacyReference) {
  run_degenerate_differential(tiny_shared_config(), 101);
}

TEST(DifferentialHierarchy, SharedL2FourCoresMatchesLegacyReference) {
  cachesim::HierarchyConfig c = tiny_shared_config();
  c.num_cores = 4;
  c.l2 = {16 * 1024, 8, 64};
  run_degenerate_differential(c, 102);
}

TEST(DifferentialHierarchy, PrivateL2DegenerateMatchesLegacyReference) {
  cachesim::HierarchyConfig c = tiny_shared_config();
  c.shared_l2 = false;
  c.signature.enabled = false;  // no shared cache to monitor (P4 SMP testbed)
  run_degenerate_differential(c, 103);
}

TEST(DifferentialHierarchy, FifoL2DegenerateMatchesLegacyReference) {
  cachesim::HierarchyConfig c = tiny_shared_config();
  c.l2_replacement = cachesim::ReplacementKind::Fifo;
  run_degenerate_differential(c, 104);
}

TEST(DifferentialHierarchy, SampledSignatureDegenerateMatchesLegacyReference) {
  cachesim::HierarchyConfig c = tiny_shared_config();
  c.signature.sample_shift = 2;  // the paper's 25% set sampling
  run_degenerate_differential(c, 105);
}

// --- SRRIP vs its naive model ----------------------------------------------

TEST(DifferentialHierarchy, SrripCacheMatchesNaiveModel) {
  // 16 sets x 4 ways over a 128-line space: constant eviction pressure so
  // the aging loop runs often, not just at cold start.
  const cachesim::CacheGeometry geom{4096, 4, 64};
  cachesim::Cache opt(geom, cachesim::ReplacementKind::Srrip, 3);
  testref::ReferenceCache ref(geom, cachesim::ReplacementKind::Srrip, 3);

  util::Rng rng(106);
  for (std::size_t i = 0; i < kAccesses; ++i) {
    const cachesim::LineAddr line = rng.next_below(128);
    const bool is_write = rng.next_bool(0.3);
    const auto requestor = static_cast<std::size_t>(rng.next_below(3));
    const cachesim::AccessResult got = opt.access(line, is_write, requestor);
    const cachesim::AccessResult want = ref.access(line, is_write, requestor);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.way, want.way) << "access " << i;
    ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
    ASSERT_EQ(got.victim_line, want.victim_line) << "access " << i;
    ASSERT_EQ(got.victim_dirty, want.victim_dirty) << "access " << i;
  }
  expect_cache_stats_eq(opt.stats(), ref.stats(), "srrip total");
  for (std::size_t r = 0; r < 3; ++r) {
    expect_cache_stats_eq(opt.stats_for(r), ref.stats_for(r), "srrip per-requestor");
  }
}

TEST(DifferentialHierarchy, SrripScansResistLruThrashing) {
  // The behavioural reason SRRIP guards the L3: a streaming scan of
  // never-reused lines pushes a small hot working set out under LRU, but
  // SRRIP-HP inserts scan lines near-distant so they are re-victimized
  // before the hot lines (which sit at RRPV 0 from their hits) are touched.
  const cachesim::CacheGeometry geom{4 * 64, 4, 64};  // 1 set x 4 ways
  cachesim::Cache srrip(geom, cachesim::ReplacementKind::Srrip, 1);
  cachesim::Cache lru(geom, cachesim::ReplacementKind::Lru, 1);
  // Warm two hot lines (the second pass hits, promoting them under SRRIP).
  for (int pass = 0; pass < 2; ++pass) {
    for (cachesim::LineAddr l = 0; l < 2; ++l) {
      srrip.access(l, false, 0);
      lru.access(l, false, 0);
    }
  }
  // Each round: touch the hot pair, then three FRESH single-use scan lines.
  cachesim::LineAddr scan = 100;
  for (int round = 0; round < 200; ++round) {
    for (cachesim::LineAddr l = 0; l < 2; ++l) {
      srrip.access(l, false, 0);
      lru.access(l, false, 0);
    }
    for (int s = 0; s < 3; ++s, ++scan) {
      srrip.access(scan, false, 0);
      lru.access(scan, false, 0);
    }
  }
  EXPECT_GT(srrip.stats().hits, lru.stats().hits)
      << "scan-resistant insertion must retain the hot lines better than LRU";
}

// --- batched replay on a 3-level topology ----------------------------------

cachesim::HierarchyConfig three_level_config() {
  cachesim::HierarchyConfig c;
  c.num_cores = 4;
  c.l2_clusters = 2;
  c.l1 = {1024, 2, 64};
  c.l2 = {4 * 1024, 4, 64};
  c.l3 = cachesim::CacheGeometry{16 * 1024, 8, 64};
  c.tlb_entries = 8;
  return c;
}

std::vector<cachesim::MemRef> random_trace(std::uint64_t seed, std::size_t n) {
  std::vector<cachesim::MemRef> trace;
  trace.reserve(n);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    cachesim::MemRef ref;
    ref.addr = rng.next_bool(0.25) ? (i % 300) * 64 : rng.next_below(128 * 1024);
    ref.is_write = rng.next_bool(0.3);
    trace.push_back(ref);
  }
  return trace;
}

TEST(DifferentialHierarchy, BatchChunkSizesMatchSerialReplayOnThreeLevels) {
  const cachesim::HierarchyConfig config = three_level_config();
  ASSERT_FALSE(config.degenerate());

  // Serial ground truth: access() one reference at a time.
  cachesim::Hierarchy serial(config);
  std::vector<std::vector<cachesim::MemRef>> traces;
  std::vector<std::vector<cachesim::MemAccessResult>> want(config.num_cores);
  for (std::size_t core = 0; core < config.num_cores; ++core) {
    traces.push_back(random_trace(200 + core, 3000));
    for (const auto& ref : traces[core]) {
      want[core].push_back(serial.access(core, ref.addr, ref.is_write));
    }
  }

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}}) {
    cachesim::Hierarchy batched(config);
    for (std::size_t core = 0; core < config.num_cores; ++core) {
      const auto& trace = traces[core];
      std::vector<cachesim::MemAccessResult> got(trace.size());
      cachesim::BatchSummary total;
      for (std::size_t off = 0; off < trace.size(); off += chunk) {
        const std::size_t n = std::min(chunk, trace.size() - off);
        const cachesim::BatchSummary s =
            batched.access_batch(core, trace.data() + off, n, got.data() + off);
        total.accesses += s.accesses;
        total.cycles += s.cycles;
        total.l1_hits += s.l1_hits;
        total.l2_hits += s.l2_hits;
        total.l3_hits += s.l3_hits;
        total.tlb_hits += s.tlb_hits;
        total.stream_prefetched += s.stream_prefetched;
      }
      // Per-access results are bit-identical to the serial replay, and the
      // summary is exactly their fold.
      cachesim::BatchSummary expect;
      expect.accesses = trace.size();
      for (std::size_t i = 0; i < trace.size(); ++i) {
        expect_mem_result_eq(got[i], want[core][i], i);
        expect.cycles += want[core][i].cycles;
        expect.l1_hits += want[core][i].l1_hit;
        expect.l2_hits += want[core][i].l2_hit;
        expect.l3_hits += want[core][i].l3_hit;
        expect.tlb_hits += want[core][i].tlb_hit;
        expect.stream_prefetched += want[core][i].stream_prefetched;
      }
      EXPECT_EQ(total, expect) << "chunk " << chunk << " core " << core;
    }
    // End state agrees level by level, not just access by access.
    for (const char* level : {"l1", "l2", "l3"}) {
      EXPECT_EQ(batched.level_stats(level), serial.level_stats(level))
          << "chunk " << chunk << " level " << level;
    }
  }
}

// --- topology matrix --------------------------------------------------------
// One trace, three machine shapes. Registered under the "topology-matrix"
// ctest label (tests/CMakeLists.txt) and run as a dedicated CI step.

/// Flow-conservation invariants every topology must satisfy: each level's
/// accesses equal the level above's misses, hits + misses = accesses.
void expect_level_flow_conservation(cachesim::Hierarchy& h) {
  const cachesim::LevelStats l1 = h.level_stats("l1");
  const cachesim::LevelStats l2 = h.level_stats("l2");
  const cachesim::LevelStats l3 = h.level_stats("l3");
  EXPECT_EQ(l1.hits + l1.misses, l1.accesses);
  EXPECT_EQ(l2.hits + l2.misses, l2.accesses);
  EXPECT_EQ(l2.accesses, l1.misses) << "every L1 miss makes exactly one L2 access";
  if (h.has_l3()) {
    EXPECT_EQ(l3.hits + l3.misses, l3.accesses);
    EXPECT_EQ(l3.accesses, l2.misses) << "every L2 miss makes exactly one L3 access";
  } else {
    EXPECT_EQ(l3, cachesim::LevelStats{}) << "no L3 means empty L3 stats";
  }
}

void run_topology_matrix_case(const cachesim::HierarchyConfig& config, std::uint64_t seed) {
  cachesim::Hierarchy a(config);
  cachesim::Hierarchy b(config);
  const std::vector<cachesim::MemRef> trace = random_trace(seed, 4000);

  // Same seed, same trace: two instances stay bit-identical (the RNG-bearing
  // Random/Srrip policies and all counters included), whether driven
  // serially or batched.
  for (std::size_t core = 0; core < config.num_cores; ++core) {
    cachesim::BatchSummary sa;
    for (const auto& ref : trace) {
      const auto r = a.access(core, ref.addr, ref.is_write);
      sa.accesses += 1;
      sa.cycles += r.cycles;
      sa.l1_hits += r.l1_hit;
      sa.l2_hits += r.l2_hit;
      sa.l3_hits += r.l3_hit;
      sa.tlb_hits += r.tlb_hit;
      sa.stream_prefetched += r.stream_prefetched;
    }
    const cachesim::BatchSummary sb = b.access_batch(core, trace.data(), trace.size());
    EXPECT_EQ(sa, sb) << "core " << core;
  }
  expect_level_flow_conservation(a);
  expect_level_flow_conservation(b);
  for (const char* level : {"l1", "l2", "l3"}) {
    EXPECT_EQ(a.level_stats(level), b.level_stats(level)) << level;
  }
}

TEST(TopologyMatrix, TwoLevelDegenerate) {
  run_topology_matrix_case(tiny_shared_config(), 301);
}

TEST(TopologyMatrix, FourClustersUnderSharedL3) {
  cachesim::HierarchyConfig c;
  c.num_cores = 8;
  c.l2_clusters = 4;
  c.l1 = {1024, 2, 64};
  c.l2 = {4 * 1024, 4, 64};
  c.l3 = cachesim::CacheGeometry{32 * 1024, 16, 64};
  run_topology_matrix_case(c, 302);
  // Per-cluster signature hardware: each cluster L2 carries its own unit
  // with cluster-local core slots.
  cachesim::Hierarchy h(c);
  EXPECT_EQ(h.num_clusters(), 4u);
  ASSERT_NE(h.filter_for_core(7), nullptr);
  EXPECT_NE(h.filter_for_core(0), h.filter_for_core(7));
  EXPECT_EQ(h.filter_for_core(0)->num_cores(), 2u);
}

TEST(TopologyMatrix, Manycore64PartitionedL3) {
  cachesim::HierarchyConfig c;
  c.num_cores = 64;
  c.l2_clusters = 8;
  c.l1 = {1024, 2, 64};
  c.l2 = {4 * 1024, 4, 64};
  c.l3 = cachesim::CacheGeometry{64 * 1024, 16, 64};
  c.l3_way_partition.ways_per_group = {2, 2, 2, 2, 2, 2, 2, 2};
  run_topology_matrix_case(c, 303);
}

TEST(TopologyMatrix, InclusiveL3BackInvalidatesClusterL2sAndL1s) {
  // Direct inclusion probe: saturate one L3 set from cluster 1 and verify a
  // line cluster 0 cached in its L2+L1 dies with its L3 copy.
  cachesim::HierarchyConfig c = three_level_config();
  cachesim::Hierarchy h(c);
  const cachesim::Addr victim = 0;
  h.access(0, victim, false);
  ASSERT_TRUE(h.l1(0).probe(0));
  ASSERT_TRUE(h.cluster_l2(0).probe(0));
  ASSERT_TRUE(h.l3().probe(0));

  // L3: 32 sets x 8 ways. Same-set lines stride 32 lines = 2048 bytes; the
  // aliases miss cluster 1's tiny L2 (16 sets) often enough to reach the L3
  // and displace set 0's ways.
  std::size_t spilled = 0;
  for (std::uint64_t i = 1; spilled < 64 && i < 4096; ++i) {
    h.access(2, victim + i * 2048, false);
    ++spilled;
  }
  EXPECT_FALSE(h.l3().probe(0)) << "victim line should have been displaced from the L3";
  EXPECT_FALSE(h.cluster_l2(0).probe(0)) << "inclusion: L3 eviction must purge the cluster L2";
  EXPECT_FALSE(h.l1(0).probe(0)) << "inclusion: L3 eviction must purge the L1";
}

TEST(TopologyMatrix, DegenerateSeedsAndL2SeedAreUnchanged) {
  // The L2 seed formula (seed + 977 * cluster) must collapse to the legacy
  // seed + 0 on degenerate shapes; a Random-replacement L2 makes any seed
  // drift visible as a different eviction sequence.
  cachesim::HierarchyConfig c = tiny_shared_config();
  c.l2_replacement = cachesim::ReplacementKind::Random;
  c.seed = 77;
  cachesim::Hierarchy h(c);
  cachesim::Cache legacy(c.l2, cachesim::ReplacementKind::Random, c.num_cores, c.seed);
  util::Rng rng(404);
  for (std::size_t i = 0; i < 4000; ++i) {
    const cachesim::LineAddr line = rng.next_below(512);
    const auto core = static_cast<std::size_t>(rng.next_below(2));
    // Drive the L2s directly so the comparison isolates the seed path.
    const auto got = h.l2().access(line, false, core);
    const auto want = legacy.access(line, false, core);
    ASSERT_EQ(got.way, want.way) << "access " << i;
    ASSERT_EQ(got.victim_line, want.victim_line) << "access " << i;
  }
}

}  // namespace
}  // namespace symbiosis
