// task.hpp — the schedulable entity (process or thread control block).
//
// §3.2: the OS keeps, per application, the (2+N)-entry signature structure
// plus scheduling state. A Task wraps one TaskStream (a single-threaded
// benchmark or one thread of a multi-threaded one), its affinity, its
// accumulated accounting, and its ProcessSignature.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "sig/signature.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis::machine {

using TaskId = std::size_t;

/// Event-counter block (the §2.2 "performance counters" a conventional OS
/// would consult — kept per task so the Fig 2 experiment can compare them
/// against the Bloom-filter occupancy weight).
struct TaskCounters {
  std::uint64_t instructions = 0;
  std::uint64_t memory_refs = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t page_faults = 0;
  std::uint64_t context_switches = 0;
};

/// A schedulable task.
class Task {
 public:
  static constexpr std::size_t kAnyCore = std::numeric_limits<std::size_t>::max();

  Task(TaskId id, std::size_t pid, std::unique_ptr<workload::TaskStream> stream,
       std::size_t num_cores)
      : id_(id), pid_(pid), stream_(std::move(stream)), signature_(num_cores) {}

  [[nodiscard]] TaskId id() const noexcept { return id_; }
  /// Process id: threads of one process share a pid (multi-threaded
  /// allocation groups by it); single-threaded tasks have unique pids.
  [[nodiscard]] std::size_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& name() const noexcept { return stream_->name(); }

  [[nodiscard]] workload::TaskStream& stream() noexcept { return *stream_; }
  [[nodiscard]] const workload::TaskStream& stream() const noexcept { return *stream_; }

  /// Affinity: a specific core, or kAnyCore for OS-default placement.
  [[nodiscard]] std::size_t affinity() const noexcept { return affinity_; }
  void set_affinity(std::size_t core) noexcept { affinity_ = core; }

  [[nodiscard]] sig::ProcessSignature& signature() noexcept { return signature_; }
  [[nodiscard]] const sig::ProcessSignature& signature() const noexcept { return signature_; }

  [[nodiscard]] TaskCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const TaskCounters& counters() const noexcept { return counters_; }

  // --- run accounting (maintained by the Machine) ---

  /// CPU cycles consumed in the CURRENT run (the Linux "user time" analogue).
  std::uint64_t run_user_cycles = 0;
  /// Cumulative CPU cycles across all runs.
  std::uint64_t total_user_cycles = 0;
  /// Completed runs (the paper restarts finished benchmarks).
  std::uint64_t completed_runs = 0;
  /// User cycles of the FIRST completed run — the paper's reported metric.
  std::uint64_t first_completion_user_cycles = 0;
  /// Simulated wall-clock time of the first completion.
  std::uint64_t first_completion_wall_cycles = 0;

  /// First-touch page tracking (drives the page-fault counter).
  std::unordered_set<std::uint64_t> touched_pages;

  /// Steps generated but not yet executed: the stream's last next_chunk
  /// lands in pending[0, pending_end), and pending_next is the first one
  /// the task has not run yet. Sized once at admission (one machine batch).
  std::vector<cachesim::MemRef> pending;
  std::size_t pending_next = 0;
  std::size_t pending_end = 0;

  /// Background tasks (e.g. a Dom0 housekeeping loop) never "complete";
  /// run_to_all_complete ignores them.
  bool background = false;

 private:
  TaskId id_;
  std::size_t pid_;
  std::unique_ptr<workload::TaskStream> stream_;
  std::size_t affinity_ = kAnyCore;
  sig::ProcessSignature signature_;
  TaskCounters counters_;
};

}  // namespace symbiosis::machine
