#include "machine/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace symbiosis::machine {

Scheduler::Scheduler(std::size_t num_cores, std::uint64_t seed, double migration_prob,
                     std::size_t cores_per_cluster)
    : queues_(num_cores),
      migration_prob_(migration_prob),
      cores_per_cluster_(cores_per_cluster == 0 ? num_cores : cores_per_cluster),
      rng_(seed) {
  if (num_cores == 0) throw std::invalid_argument("Scheduler: num_cores must be > 0");
  if (num_cores % cores_per_cluster_ != 0) {
    throw std::invalid_argument("Scheduler: cluster size must divide the core count");
  }
}

void Scheduler::ensure_tracked(TaskId task) {
  if (task >= assignment_.size()) {
    assignment_.resize(task + 1, Task::kAnyCore);
    affinity_.resize(task + 1, Task::kAnyCore);
  }
}

std::size_t Scheduler::least_loaded_core_near(std::size_t core) {
  const std::size_t base = (core / cores_per_cluster_) * cores_per_cluster_;
  std::size_t best = base;
  std::size_t best_depth = queues_[base].size();
  std::size_t ties = 1;
  for (std::size_t c = base + 1; c < base + cores_per_cluster_; ++c) {
    const std::size_t depth = queues_[c].size();
    if (depth < best_depth) {
      best = c;
      best_depth = depth;
      ties = 1;
    } else if (depth == best_depth) {
      // Reservoir-style random tie-break keeps migration unbiased.
      if (rng_.next_below(++ties) == 0) best = c;
    }
  }
  return best;
}

void Scheduler::admit(TaskId task, std::size_t affinity) {
  ensure_tracked(task);
  affinity_[task] = affinity;
  std::size_t core = affinity;
  if (core == Task::kAnyCore) {
    core = next_default_core_;
    next_default_core_ = (next_default_core_ + 1) % queues_.size();
  }
  if (core >= queues_.size()) throw std::out_of_range("Scheduler::admit: bad core");
  assignment_[task] = core;
  queues_[core].push_back(task);
  SYM_DCHECK(affinity == Task::kAnyCore || assignment_[task] == affinity, "machine.affinity")
      << "pinned task admitted to a different core";
}

void Scheduler::set_affinity(TaskId task, std::size_t core) {
  ensure_tracked(task);
  if (core != Task::kAnyCore && core >= queues_.size()) {
    throw std::out_of_range("Scheduler::set_affinity: bad core");
  }
  affinity_[task] = core;
  if (core == Task::kAnyCore) return;  // unpinned: next yield migrates freely
  if (core == assignment_[task]) return;

  // If the task is sitting in a queue, migrate it now; if it is currently
  // running, yield() will route it to the new queue at the quantum boundary.
  auto& old_queue = queues_[assignment_[task]];
  const auto it = std::find(old_queue.begin(), old_queue.end(), task);
  assignment_[task] = core;
  if (it != old_queue.end()) {
    old_queue.erase(it);
    queues_[core].push_back(task);
  }
}

bool Scheduler::pick_next(std::size_t core, TaskId& out) {
  auto& queue = queues_.at(core);
  if (queue.empty()) return false;
  out = queue.front();
  queue.pop_front();
  SYM_DCHECK_LT(out, assignment_.size(), "machine.affinity");
  SYM_DCHECK_EQ(assignment_[out], core, "machine.affinity")
      << "task dequeued from a core it is not assigned to";
  SYM_DCHECK(affinity_[out] == Task::kAnyCore || affinity_[out] == core, "machine.affinity")
      << "pinned task surfaced on the wrong core's queue";
  return true;
}

void Scheduler::yield(TaskId task) {
  ensure_tracked(task);
  std::size_t target = affinity_[task];
  if (target == Task::kAnyCore) {
    // OS load balancing: unpinned tasks occasionally drift to the emptiest
    // queue; otherwise they stay put (cache-affinity-style stickiness).
    // Clustered machines balance within the cluster only (see class doc).
    if (rng_.next_bool(migration_prob_)) {
      target = least_loaded_core_near(assignment_[task]);
    } else {
      target = assignment_[task];
    }
    if (target != assignment_[task]) {
      static obs::Counter& migrations = obs::counter("machine.sched.migrations");
      migrations.add(1);
    }
  }
  SYM_DCHECK_BOUNDS(target, queues_.size(), "machine.affinity")
      << "yield routed task " << task << " to a nonexistent core";
  assignment_[task] = target;
  queues_.at(target).push_back(task);
}

std::size_t Scheduler::core_of(TaskId task) const {
  if (task >= assignment_.size()) return Task::kAnyCore;
  return assignment_[task];
}

}  // namespace symbiosis::machine
