// machine.hpp — the event-interleaved multi-core machine simulation.
//
// This substrate plays the role of both of the paper's phases: with the
// allocation hook installed it is the Simics emulation machine gathering
// Bloom-filter signatures; run with pinned affinities it is the "real"
// Core 2 Duo measuring user runtimes. Cores advance one at a time — always
// the core with the smallest local clock — in small step batches, so
// accesses from different cores interleave in (simulated-)time order and
// genuinely contend for the shared L2.
//
// Context-switch protocol (§3.1):
//   switch OUT of task T on core c:
//     RBV  = CF[c] ∧ ¬LF[c]
//     T.signature.record({c, popcount(RBV), popcount(RBV ⊕ CF[k]) ∀k})
//   switch IN of task U on core c:
//     LF[c] = CF[c]; TLB flush; charge context_switch_cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "machine/config.hpp"
#include "machine/scheduler.hpp"
#include "machine/task.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis::machine {

/// Machine-wide statistics.
struct MachineStats {
  std::uint64_t context_switches = 0;
  std::uint64_t steps = 0;
  std::uint64_t hook_invocations = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  // --- workload setup ---

  /// Add a single-threaded task (gets its own fresh pid).
  TaskId add_task(std::unique_ptr<workload::TaskStream> stream,
                  std::size_t affinity = Task::kAnyCore);

  /// Add one thread of a multi-threaded process (@p pid groups threads).
  TaskId add_thread(std::unique_ptr<workload::TaskStream> stream, std::size_t pid,
                    std::size_t affinity = Task::kAnyCore);

  /// Admit a whole process: one task per stream of @p threads (generated
  /// or .symt-replayed), all sharing a fresh pid. Returns the TaskIds in
  /// thread order.
  std::vector<TaskId> add_process(workload::StreamGroup threads,
                                  std::size_t affinity = Task::kAnyCore);

  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] Task& task(TaskId id) { return *tasks_.at(id); }
  [[nodiscard]] const Task& task(TaskId id) const { return *tasks_.at(id); }

  /// Re-pin a task (takes effect at its next quantum boundary), exactly like
  /// the paper's user-level monitor calling sched_setaffinity.
  void set_affinity(TaskId id, std::size_t core);

  // --- execution ---

  /// Install a hook called every @p period_cycles of simulated time; this is
  /// where the resource-allocation algorithms run (paper: every 100 ms).
  void set_periodic_hook(std::uint64_t period_cycles, std::function<void(Machine&)> hook);

  /// Run until every task has completed at least one full run (the paper's
  /// "until the longest benchmark completes"), or until @p max_cycles of
  /// simulated time (0 = no cap). Returns true if all completed.
  bool run_to_all_complete(std::uint64_t max_cycles = 0);

  /// Run for (at least) @p cycles of simulated time.
  void run_for(std::uint64_t cycles);

  // --- inspection ---

  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] cachesim::Hierarchy& hierarchy() noexcept { return hierarchy_; }
  [[nodiscard]] const cachesim::Hierarchy& hierarchy() const noexcept { return hierarchy_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] const MachineStats& stats() const noexcept { return stats_; }

  /// Current simulated time: the smallest clock among cores that have work
  /// (nothing system-wide has happened past this point yet).
  [[nodiscard]] std::uint64_t now() const noexcept;

  /// Task currently on @p core, or nullptr.
  [[nodiscard]] const Task* running_on(std::size_t core) const;

  /// Publish machine + hierarchy counter deltas into the global
  /// obs::MetricRegistry. Called automatically at hook firings and when a
  /// run_* entry point returns; safe to call manually at any quiescent point.
  void publish_metrics();

 private:
  static constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

  /// Advance the chosen core by up to one batch; returns false if the whole
  /// machine is out of runnable work.
  bool advance_one();

  void switch_out(std::size_t core);
  bool switch_in(std::size_t core);
  void execute_batch(std::size_t core);
  void record_signature(std::size_t core, Task& task);
  void fire_due_hooks();

  MachineConfig config_;
  cachesim::Hierarchy hierarchy_;
  Scheduler scheduler_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::size_t next_pid_ = 0;

  /// Scratch for record_signature's batched per-cluster symbiosis pass
  /// (avoids an allocation per context switch).
  std::vector<std::size_t> symbiosis_scratch_;

  // per-core execution state
  std::vector<std::uint64_t> clock_;
  std::vector<TaskId> current_;
  std::vector<std::uint64_t> quantum_left_;

  std::uint64_t hook_period_ = 0;
  std::uint64_t next_hook_ = 0;
  std::function<void(Machine&)> hook_;
  util::Rng jitter_rng_;  // seeded from config.seed in the mem-init list

  MachineStats stats_;
  /// Totals as of the last publish_metrics() (delta baseline).
  MachineStats published_;
};

/// Address-space base for process @p pid: 1 TiB apart so distinct processes
/// can never alias (threads of one process share the pid and the base).
[[nodiscard]] constexpr cachesim::Addr address_space_base(std::size_t pid) noexcept {
  return static_cast<cachesim::Addr>(pid + 1) << 40;
}

}  // namespace symbiosis::machine
