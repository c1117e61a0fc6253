// HierarchyConfig shape tests: degenerate-shape classification, the
// cluster arithmetic the signature hardware and scheduler rely on, and the
// validate() rejections (non-dividing cluster counts, oversubscribed or
// zero-way partitions) observed as CheckError via ScopedCheckMode(Throw).
// Also the Cache-level way-partition semantics: fills confined to a group's
// ways, lookups unconfined, TreePlru refusing partitioning outright.
#include "cachesim/hierarchy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "cachesim/cache.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace symbiosis::cachesim {
namespace {

using util::CheckError;
using util::CheckMode;
using util::ScopedCheckMode;

HierarchyConfig clustered_topology() {
  HierarchyConfig t;
  t.num_cores = 32;
  t.shared_l2 = true;
  t.l2_clusters = 4;
  t.l1 = {8 * 1024, 8, 64};
  t.l2 = {512 * 1024, 16, 64};
  t.l3 = CacheGeometry{2 * 1024 * 1024, 16, 64};
  return t;
}

TEST(Topology, DegenerateShapesAreExactlyTheLegacyTestbeds) {
  HierarchyConfig shared;  // defaults: 2 cores, 1 shared L2, no L3
  EXPECT_TRUE(shared.degenerate());

  HierarchyConfig priv;
  priv.shared_l2 = false;
  EXPECT_TRUE(priv.degenerate()) << "private L2s (P4 SMP) are the other legacy testbed";

  // Each graph extension on its own leaves the legacy world.
  HierarchyConfig clustered;
  clustered.num_cores = 4;
  clustered.l2_clusters = 2;
  EXPECT_FALSE(clustered.degenerate());

  HierarchyConfig with_l3;
  with_l3.l3 = CacheGeometry{1024 * 1024, 16, 64};
  EXPECT_FALSE(with_l3.degenerate());

  HierarchyConfig partitioned;
  partitioned.l2_way_partition.ways_per_group = {8, 8};
  EXPECT_FALSE(partitioned.degenerate());
}

TEST(Topology, ClusterArithmetic) {
  const HierarchyConfig t = clustered_topology();
  EXPECT_EQ(t.clusters(), 4u);
  EXPECT_EQ(t.cores_per_cluster(), 8u);
  for (std::size_t core = 0; core < t.num_cores; ++core) {
    // Decomposition is exact and clusters are contiguous core ranges.
    EXPECT_EQ(t.cluster_of(core) * t.cores_per_cluster() + t.local_core(core), core);
    EXPECT_LT(t.cluster_of(core), t.clusters());
    EXPECT_LT(t.local_core(core), t.cores_per_cluster());
  }
  EXPECT_EQ(t.cluster_of(7), 0u);
  EXPECT_EQ(t.cluster_of(8), 1u);
}

TEST(Topology, PrivateL2NormalizesToOneCoreClusters) {
  HierarchyConfig t;
  t.num_cores = 4;
  t.shared_l2 = false;
  EXPECT_EQ(t.clusters(), 4u);
  EXPECT_EQ(t.cores_per_cluster(), 1u);
  EXPECT_NO_THROW(t.validate());
}

TEST(Topology, SingleCoreClustersAreValid) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t = clustered_topology();
  t.l2_clusters = 32;  // every core its own shared-L2 "cluster"
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.cores_per_cluster(), 1u);
  EXPECT_FALSE(t.degenerate()) << "32 single-core clusters under an L3 is not a legacy shape";
}

TEST(Topology, RejectsNonDividingClusterCount) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t = clustered_topology();
  t.l2_clusters = 5;  // 32 % 5 != 0
  EXPECT_THROW(t.validate(), CheckError);
  t.l2_clusters = 3;
  EXPECT_THROW(t.validate(), CheckError);
  t.l2_clusters = 8;
  EXPECT_NO_THROW(t.validate());
}

TEST(Topology, RejectsDegenerateCounts) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t;
  t.num_cores = 0;
  EXPECT_THROW(t.validate(), CheckError);

  t = HierarchyConfig{};
  t.l2_clusters = 0;
  EXPECT_THROW(t.validate(), CheckError);

  t = HierarchyConfig{};
  t.num_cores = 2;
  t.l2_clusters = 4;  // more L2s than cores
  EXPECT_THROW(t.validate(), CheckError);

  t = HierarchyConfig{};
  t.shared_l2 = false;
  t.l2_clusters = 2;  // private L2s fix clusters = cores
  EXPECT_THROW(t.validate(), CheckError);
}

TEST(Topology, RejectsMismatchedL3LineSize) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t = clustered_topology();
  t.l3 = CacheGeometry{2 * 1024 * 1024, 16, 128};
  EXPECT_THROW(t.validate(), CheckError);
}

TEST(Topology, RejectsL3PartitionWithoutL3) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t;
  t.l3_way_partition.ways_per_group = {8, 8};
  EXPECT_THROW(t.validate(), CheckError);
}

TEST(Topology, PartitionMustMatchSharerGroupCount) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t = clustered_topology();
  t.l2_way_partition.ways_per_group = {8, 8};  // 8 cluster-local cores, 2 groups
  EXPECT_THROW(t.validate(), CheckError);
  t.l2_way_partition.ways_per_group = {2, 2, 2, 2, 2, 2, 2, 2};
  EXPECT_NO_THROW(t.validate());

  t = clustered_topology();
  t.l3_way_partition.ways_per_group = {4, 4, 4};  // 4 clusters, 3 groups
  EXPECT_THROW(t.validate(), CheckError);
  t.l3_way_partition.ways_per_group = {4, 4, 4, 4};
  EXPECT_NO_THROW(t.validate());
}

TEST(Topology, RejectsPartitionSumPastAssociativity) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t = clustered_topology();
  t.l2_way_partition.ways_per_group = {4, 4, 4, 4, 4, 4, 4, 4};  // 32 ways of 16
  EXPECT_THROW(t.validate(), CheckError);

  t = clustered_topology();
  t.l3_way_partition.ways_per_group = {8, 8, 8, 8};  // 32 ways of 16
  EXPECT_THROW(t.validate(), CheckError);
}

TEST(Topology, RejectsZeroWayPartitionGroup) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t = clustered_topology();
  t.l2_way_partition.ways_per_group = {16, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_THROW(t.validate(), CheckError);
}

TEST(Topology, SingleWayPartitionsValidate) {
  const ScopedCheckMode guard(CheckMode::Throw);
  HierarchyConfig t = clustered_topology();
  t.l2_way_partition.ways_per_group = {1, 1, 1, 1, 1, 1, 1, 1};
  t.l3_way_partition.ways_per_group = {1, 1, 1, 1};
  EXPECT_NO_THROW(t.validate());
  // A partition may also leave ways unclaimed (sum < associativity): those
  // ways simply never fill.
  EXPECT_EQ(t.l2_way_partition.total_ways(), 8u);
  EXPECT_EQ(t.l3_way_partition.total_ways(), 4u);
}

TEST(Topology, RandomValidShapesAlwaysValidate) {
  // Property fuzz: any (cores, dividing cluster count) pair forms a valid
  // topology whose cluster arithmetic is self-consistent.
  const ScopedCheckMode guard(CheckMode::Throw);
  util::Rng rng(20260808);
  const std::size_t core_options[] = {1, 2, 4, 8, 12, 16, 24, 32, 48, 64};
  for (int trial = 0; trial < 200; ++trial) {
    HierarchyConfig t;
    t.num_cores = core_options[rng.next_below(std::size(core_options))];
    std::vector<std::size_t> divisors;
    for (std::size_t d = 1; d <= t.num_cores; ++d) {
      if (t.num_cores % d == 0) divisors.push_back(d);
    }
    t.l2_clusters = divisors[rng.next_below(divisors.size())];
    if (rng.next_bool(0.5)) t.l3 = CacheGeometry{1024 * 1024, 16, 64};
    ASSERT_NO_THROW(t.validate()) << t.describe();
    ASSERT_EQ(t.clusters() * t.cores_per_cluster(), t.num_cores);
    for (std::size_t core = 0; core < t.num_cores; ++core) {
      ASSERT_EQ(t.cluster_of(core) * t.cores_per_cluster() + t.local_core(core), core);
    }
  }
}

TEST(Topology, DescribeNamesTheShape) {
  EXPECT_EQ(clustered_topology().describe(), "32 cores / 4x512KiB cluster L2 / 2MiB shared L3");
  HierarchyConfig priv;
  priv.shared_l2 = false;
  priv.l2 = {128 * 1024, 8, 64};
  EXPECT_EQ(priv.describe(), "2 cores / private 128KiB L2s");
  HierarchyConfig legacy;
  EXPECT_EQ(legacy.describe(), "2 cores / 1x256KiB shared L2");
}

// --- Cache way-partition semantics -----------------------------------------

TEST(CachePartitioning, FillsConfinedToOwnWaysLookupsAreNot) {
  // 1 set x 4 ways, two requestors with 2 ways each.
  Cache cache(CacheGeometry{4 * 64, 4, 64}, ReplacementKind::Lru, 2);
  cache.set_partition(CachePartition{{2, 2}}, {0, 1});
  EXPECT_TRUE(cache.partitioned());

  // Requestor 1 installs two lines, then requestor 0 floods the set: the
  // flood may only recycle requestor 0's own two ways, so requestor 1's
  // lines survive any amount of cross-requestor pressure.
  cache.access(100, false, 1);
  cache.access(200, false, 1);
  for (std::uint64_t i = 0; i < 64; ++i) cache.access(i, false, 0);
  EXPECT_TRUE(cache.access(100, false, 1).hit);
  EXPECT_TRUE(cache.access(200, false, 1).hit);
  EXPECT_EQ(cache.occupancy(1), 2u);
  EXPECT_EQ(cache.occupancy(0), 2u);

  // Lookups search ALL ways: requestor 0 hits a line requestor 1 owns.
  EXPECT_TRUE(cache.access(100, false, 0).hit);
}

TEST(CachePartitioning, SingleWayGroupsDegradeToDirectMapped) {
  Cache cache(CacheGeometry{4 * 64, 4, 64}, ReplacementKind::Lru, 4);
  cache.set_partition(CachePartition{{1, 1, 1, 1}}, {0, 1, 2, 3});
  // Each requestor owns exactly one way of the set; two lines from the same
  // requestor always conflict, lines from different requestors never do.
  cache.access(10, false, 2);
  cache.access(20, false, 2);  // evicts line 10 from requestor 2's only way
  cache.access(30, false, 3);
  EXPECT_TRUE(cache.access(20, false, 2).hit) << "requestor 3 cannot evict requestor 2";
  // Probing line 10 misses AND refills requestor 2's way, evicting line 20
  // again — the direct-mapped conflict in both directions.
  EXPECT_FALSE(cache.access(10, false, 2).hit);
  EXPECT_FALSE(cache.access(20, false, 2).hit);
}

TEST(CachePartitioning, RejectsOversubscriptionAndBadGroups) {
  const ScopedCheckMode guard(CheckMode::Throw);
  Cache cache(CacheGeometry{4 * 64, 4, 64}, ReplacementKind::Lru, 2);
  EXPECT_THROW(cache.set_partition(CachePartition{{3, 2}}, {0, 1}), CheckError);
  EXPECT_THROW(cache.set_partition(CachePartition{{2, 0}}, {0, 1}), CheckError);
  EXPECT_THROW(cache.set_partition(CachePartition{}, {0, 1}), CheckError);
  EXPECT_THROW(cache.set_partition(CachePartition{{2, 2}}, {0, 2}), CheckError)
      << "requestor mapped to an undefined group";
  EXPECT_THROW(cache.set_partition(CachePartition{{2, 2}}, {0}), CheckError)
      << "one group id per requestor";
}

TEST(CachePartitioning, TreePlruRefusesPartitioning) {
  const ScopedCheckMode guard(CheckMode::Throw);
  Cache cache(CacheGeometry{4 * 64, 4, 64}, ReplacementKind::TreePlru, 2);
  EXPECT_THROW(cache.set_partition(CachePartition{{2, 2}}, {0, 1}), CheckError)
      << "tree bits cannot confine victims to a way range";
  // The other policies all support it.
  for (const auto kind : {ReplacementKind::Lru, ReplacementKind::Fifo, ReplacementKind::Random,
                          ReplacementKind::Srrip}) {
    Cache ok(CacheGeometry{4 * 64, 4, 64}, kind, 2);
    EXPECT_NO_THROW(ok.set_partition(CachePartition{{2, 2}}, {0, 1})) << to_string(kind);
  }
}

}  // namespace
}  // namespace symbiosis::cachesim
