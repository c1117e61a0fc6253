// replayer.hpp — multi-threaded, synchronization-aware .symt trace replay.
//
// Maps every trace thread onto a simulated core (thread t → core t mod
// num_cores) and drives the decoded reference stream straight through
// Hierarchy::access_batch in chunks. Inter-thread ordering is enforced
// deterministically, SynchroTrace-style: replay proceeds in rounds of
// round-robin thread visits, and a visit either applies the thread's next
// decoded chunk of memory references or retires exactly one sync event:
//
//   barrier b   — generation-counted over ALL trace threads: a thread's nth
//                 barrier retires only once every thread has arrived at its
//                 nth barrier (all arrivals must carry the same id);
//   lock/unlock — a global mutex per lock id; acquisition order is the
//                 round-robin arrival order, unlocking a lock the thread
//                 does not hold is a trace error;
//   signal e    — increments this thread's signal counter for event e;
//   wait e,p    — retires once thread p has signaled e more times than this
//                 thread has already consumed (one wait eats one signal).
//
// Because visits happen in a fixed order and each visit's effect depends
// only on per-thread cursor state plus this sync state, the replay is
// deterministic. A round in which no thread makes progress while work
// remains is a deadlocked (malformed) trace and raises a diagnostic naming
// every blocked thread — never a hang.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "workload/symt.hpp"

namespace symbiosis::workload {

struct ReplayOptions {
  /// Memory references decoded and applied per thread visit. Chunk size is
  /// NOT semantically neutral for multi-threaded traces (it is the
  /// interleaving granularity, like the machine's batch_steps), so equal
  /// chunk sizes — not just equal traces — are what the determinism and
  /// differential suites compare.
  std::size_t chunk = 4096;
};

/// Per-thread replay accounting.
struct ThreadReplayStats {
  std::uint64_t mem_refs = 0;
  std::uint64_t barriers = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_releases = 0;
  std::uint64_t signals = 0;
  std::uint64_t waits = 0;
  /// Visits spent blocked on a sync event (contention measure).
  std::uint64_t blocked_visits = 0;

  [[nodiscard]] bool operator==(const ThreadReplayStats&) const noexcept = default;
};

struct ReplayResult {
  cachesim::BatchSummary totals;
  std::vector<ThreadReplayStats> threads;
  std::uint64_t rounds = 0;
  std::uint64_t sync_events = 0;

  [[nodiscard]] bool operator==(const ReplayResult&) const noexcept = default;
};

/// One replay of @p trace into @p hierarchy. The hierarchy is NOT reset
/// first (callers compose warm-up phases); construct a fresh Hierarchy for
/// from-scratch replays. Throws std::runtime_error on malformed traces
/// (decode errors, unlock-without-hold, recursive lock, barrier id
/// mismatch, deadlock).
class TraceReplayer {
 public:
  TraceReplayer(const SymtTrace& trace, cachesim::Hierarchy& hierarchy,
                ReplayOptions options = {});

  /// Replay the whole trace; callable once per replayer instance.
  ReplayResult run();

 private:
  struct ThreadState {
    SymtCursor cursor;
    std::vector<cachesim::MemRef> buffer;
    std::size_t buffered = 0;
    bool has_sync = false;
    SymtRecord sync{};
    bool arrived = false;  ///< at the current barrier generation

    explicit ThreadState(SymtCursor c) : cursor(c) {}
    [[nodiscard]] bool exhausted() const noexcept {
      return buffered == 0 && !has_sync && cursor.done();
    }
  };

  void decode_one(ThreadState& ts);
  /// Apply thread @p t's pending work; returns true if it made progress.
  bool visit(std::size_t t);
  /// The hot half of visit(): drive @p ts's decoded chunk through
  /// Hierarchy::access_batch and fold the summary into the result. A
  /// SYM_HOT root; the sync/control plane (retire_sync, with its std::map
  /// bookkeeping and trace-error throws) deliberately stays outside it.
  bool apply_chunk(std::size_t t, ThreadState& ts);
  bool retire_sync(std::size_t t);
  [[noreturn]] void report_deadlock() const;

  const SymtTrace& trace_;
  cachesim::Hierarchy& hierarchy_;
  ReplayOptions options_;
  std::vector<ThreadState> threads_;
  ReplayResult result_;
  bool ran_ = false;

  // --- sync state (std::map: deterministic, and tiny next to the streams) --
  std::map<std::uint64_t, std::size_t> lock_owner_;
  /// (event id, signaling thread) → signals issued.
  std::map<std::pair<std::uint64_t, std::size_t>, std::uint64_t> signal_count_;
  /// (event id, partner, waiting thread) → signals consumed.
  std::map<std::tuple<std::uint64_t, std::size_t, std::size_t>, std::uint64_t> wait_consumed_;
  std::size_t barrier_arrivals_ = 0;
  std::uint64_t barrier_generation_ = 0;
  std::uint64_t barrier_id_ = 0;  ///< id of the in-progress generation
};

/// Convenience: replay @p trace into a fresh default-reset @p hierarchy.
ReplayResult replay_trace(const SymtTrace& trace, cachesim::Hierarchy& hierarchy,
                          ReplayOptions options = {});

}  // namespace symbiosis::workload
