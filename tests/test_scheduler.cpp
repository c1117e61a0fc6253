#include "machine/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

namespace symbiosis::machine {
namespace {

TEST(Scheduler, AdmitRoundRobinsUnpinned) {
  Scheduler s(2);
  s.admit(0, Task::kAnyCore);
  s.admit(1, Task::kAnyCore);
  s.admit(2, Task::kAnyCore);
  EXPECT_EQ(s.core_of(0), 0u);
  EXPECT_EQ(s.core_of(1), 1u);
  EXPECT_EQ(s.core_of(2), 0u);
}

TEST(Scheduler, AdmitHonorsPinnedCore) {
  Scheduler s(2);
  s.admit(5, 1);
  EXPECT_EQ(s.core_of(5), 1u);
  EXPECT_EQ(s.queue_depth(1), 1u);
  EXPECT_EQ(s.queue_depth(0), 0u);
}

TEST(Scheduler, PickNextIsFifoWithinCore) {
  Scheduler s(1);
  s.admit(0, 0);
  s.admit(1, 0);
  TaskId t;
  ASSERT_TRUE(s.pick_next(0, t));
  EXPECT_EQ(t, 0u);
  ASSERT_TRUE(s.pick_next(0, t));
  EXPECT_EQ(t, 1u);
  EXPECT_FALSE(s.pick_next(0, t));
}

TEST(Scheduler, PinnedTaskAlwaysReturnsToItsQueue) {
  Scheduler s(2);
  s.admit(0, 1);
  TaskId t;
  ASSERT_TRUE(s.pick_next(1, t));
  for (int i = 0; i < 20; ++i) {
    s.yield(t);
    EXPECT_EQ(s.core_of(t), 1u);
    ASSERT_TRUE(s.pick_next(1, t));
  }
}

TEST(Scheduler, UnpinnedTaskMigratesToLeastLoaded) {
  Scheduler s(2, /*seed=*/3, /*migration_prob=*/1.0);
  s.admit(0, Task::kAnyCore);  // lands on core 0
  s.admit(1, 1);
  s.admit(2, 1);
  TaskId t;
  ASSERT_TRUE(s.pick_next(0, t));
  s.yield(t);  // core 0's queue is empty, core 1 has 2: must go to 0
  EXPECT_EQ(s.core_of(0), 0u);
}

TEST(Scheduler, UnpinnedMigrationMixesCoresOverTime) {
  // With symmetric load the random tie-break must spread an unpinned task
  // across both cores (this drives the paper's phase-1 sampling).
  Scheduler s(2, 7, /*migration_prob=*/1.0);
  s.admit(0, Task::kAnyCore);
  std::set<std::size_t> cores_seen;
  TaskId t;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(s.pick_next(s.core_of(0), t));
    s.yield(t);
    cores_seen.insert(s.core_of(0));
  }
  EXPECT_EQ(cores_seen.size(), 2u);
}

TEST(Scheduler, SetAffinityMigratesQueuedTask) {
  Scheduler s(2);
  s.admit(0, 0);
  s.set_affinity(0, 1);
  EXPECT_EQ(s.core_of(0), 1u);
  EXPECT_EQ(s.queue_depth(0), 0u);
  EXPECT_EQ(s.queue_depth(1), 1u);
}

TEST(Scheduler, SetAffinityOnRunningTaskAppliesAtYield) {
  Scheduler s(2);
  s.admit(0, 0);
  TaskId t;
  ASSERT_TRUE(s.pick_next(0, t));
  s.set_affinity(0, 1);  // task is "running": not in any queue
  s.yield(t);
  EXPECT_EQ(s.core_of(0), 1u);
}

TEST(Scheduler, UnpinningKeepsCurrentQueueUntilYield) {
  Scheduler s(2);
  s.admit(0, 0);
  s.set_affinity(0, Task::kAnyCore);
  EXPECT_EQ(s.core_of(0), 0u);  // no immediate move
}

TEST(Scheduler, UnpinnedTaskStaysInItsCluster) {
  // The balancer is cluster-affine: even migrating at every yield, an
  // unpinned task only moves between the cores of its own cluster. Three
  // tasks per two-core cluster keep producing tied queues, so each task
  // does move inside it.
  Scheduler s(8, /*seed=*/5, /*migration_prob=*/1.0, /*cores_per_cluster=*/2);
  constexpr TaskId kTasks = 12;
  for (TaskId t = 0; t < kTasks; ++t) {
    s.admit(t, 2 * (t / 3) + (t % 3 == 2 ? 1 : 0));  // cluster t / 3
    s.set_affinity(t, Task::kAnyCore);
  }
  std::vector<std::set<std::size_t>> cores_seen(kTasks);
  for (int round = 0; round < 200; ++round) {
    for (std::size_t c = 0; c < s.num_cores(); ++c) {
      TaskId t = 0;
      if (!s.pick_next(c, t)) continue;
      s.yield(t);
      ASSERT_EQ(s.core_of(t) / 2, t / 3) << "task " << t << " left its cluster";
      cores_seen[t].insert(s.core_of(t));
    }
  }
  for (TaskId t = 0; t < kTasks; ++t) EXPECT_EQ(cores_seen[t].size(), 2u) << "task " << t;
}

/// FNV-1a digest of (task, core_of) after every yield over @p rounds
/// round-robin rounds (each core picks and yields one task in turn), with
/// @p tasks unpinned tasks admitted first.
std::uint64_t balancer_digest(Scheduler& s, std::size_t tasks, int rounds) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (TaskId t = 0; t < tasks; ++t) s.admit(t, Task::kAnyCore);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t c = 0; c < s.num_cores(); ++c) {
      TaskId t = 0;
      if (!s.pick_next(c, t)) continue;
      s.yield(t);
      add(t);
      add(s.core_of(t));
    }
  }
  return h;
}

TEST(Scheduler, BalancerDrawPins) {
  // The load balancer's draws (migrate or not, then the reservoir tie-break
  // over the least-loaded queues) decide every phase-1 co-runner pairing.
  // These digests pin them on a one-cluster and on a clustered machine.
  // They were recorded when one-cluster machines still had a scan of their
  // own; the cluster scan over a single cluster draws the same sequence.
  Scheduler flat(4, /*seed=*/11, /*migration_prob=*/0.5);
  EXPECT_EQ(balancer_digest(flat, 9, 5000), 3855276339253788552ull);
  Scheduler clustered(8, /*seed=*/13, /*migration_prob=*/0.5, /*cores_per_cluster=*/2);
  EXPECT_EQ(balancer_digest(clustered, 17, 5000), 6635495910356977476ull);
}

TEST(Scheduler, Validation) {
  EXPECT_THROW(Scheduler(0), std::invalid_argument);
  Scheduler s(2);
  EXPECT_THROW(s.admit(0, 5), std::out_of_range);
  s.admit(0, 0);
  EXPECT_THROW(s.set_affinity(0, 9), std::out_of_range);
}

}  // namespace
}  // namespace symbiosis::machine
