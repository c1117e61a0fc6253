// scheduler.hpp — per-core run queues with affinity (distributed-queue OS).
//
// Mirrors what §5.3 assumes of Linux: the OS keeps one run queue per core
// and round-robins within it; our allocation layer only ever SETS AFFINITY
// BITS (it never replaces the scheduler), exactly like the paper's
// user-level monitoring process. Affinity changes migrate a task to the
// target core's queue at its next quantum boundary.
#pragma once

#include <deque>
#include <vector>

#include "machine/task.hpp"
#include "util/rng.hpp"

namespace symbiosis::machine {

/// Distributed run queues; the Machine drives one core at a time.
///
/// Unpinned (kAnyCore) tasks OCCASIONALLY migrate at quantum boundaries to
/// the least-loaded queue (random tie-break) — a stand-in for Linux's SMP
/// load balancer. This matters for phase 1 of the pipeline: signature
/// gathering must sample a process against varied co-runners across
/// allocator windows (the paper's emulation runs under default OS
/// scheduling while the allocator only VOTES, §4.1), yet core populations
/// must stay quasi-stable WITHIN a window — per-quantum reshuffling would
/// average the per-core symbiosis over all partners and reduce the
/// §3.3.2 interference graph to an uninformative additive form. Pinned
/// tasks always return to their affinity queue.
class Scheduler {
 public:
  /// @p cores_per_cluster groups cores into LLC-sharing clusters (the
  /// machine's L2 topology); 0 means one cluster spanning every core. On
  /// clustered machines the load balancer is CLUSTER-AFFINE: an unpinned
  /// task only drifts within its current cluster, like Linux's sched
  /// domains preferring intra-LLC balancing — a cross-cluster move would
  /// forfeit the task's whole shared-cache footprint. Cross-cluster
  /// placement stays the allocation layer's job (set_affinity). With one
  /// cluster the balancer scans every core.
  explicit Scheduler(std::size_t num_cores, std::uint64_t seed = 1,
                     double migration_prob = 0.15, std::size_t cores_per_cluster = 0);

  [[nodiscard]] std::size_t num_cores() const noexcept { return queues_.size(); }

  /// Admit a task. kAnyCore tasks are placed round-robin (the OS-default
  /// schedule the paper's Fig 14 calls the "default schedule").
  void admit(TaskId task, std::size_t affinity);

  /// Called by the allocation layer; takes effect at the task's next
  /// quantum boundary (the task keeps running its current slice).
  void set_affinity(TaskId task, std::size_t core);

  /// Pick the next task to run on @p core (round-robin pop); returns false
  /// when the core's queue is empty. The task becomes "running".
  [[nodiscard]] bool pick_next(std::size_t core, TaskId& out);

  /// Return a running task to the back of the right queue (honouring any
  /// pending affinity migration).
  void yield(TaskId task);

  /// Tasks queued on (not running on) @p core.
  [[nodiscard]] std::size_t queue_depth(std::size_t core) const { return queues_.at(core).size(); }

  /// The queue a task will run on next (its effective core assignment).
  [[nodiscard]] std::size_t core_of(TaskId task) const;

 private:
  std::vector<std::deque<TaskId>> queues_;
  std::vector<std::size_t> assignment_;  // task -> current queue
  std::vector<std::size_t> affinity_;    // task -> pinned core or kAnyCore
  std::size_t next_default_core_ = 0;
  double migration_prob_;
  std::size_t cores_per_cluster_;
  util::Rng rng_;

  void ensure_tracked(TaskId task);
  /// Least-loaded queue among the cores sharing @p core's cluster L2.
  [[nodiscard]] std::size_t least_loaded_core_near(std::size_t core);
};

}  // namespace symbiosis::machine
