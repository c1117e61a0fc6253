#include "workload/replayer.hpp"

#include <stdexcept>

#include "util/check.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::workload {

TraceReplayer::TraceReplayer(const SymtTrace& trace, cachesim::Hierarchy& hierarchy,
                             ReplayOptions options)
    : trace_(trace), hierarchy_(hierarchy), options_(options) {
  if (options_.chunk == 0) throw std::invalid_argument("TraceReplayer: zero chunk");
  threads_.reserve(trace.num_threads());
  for (std::size_t t = 0; t < trace.num_threads(); ++t) {
    threads_.emplace_back(SymtCursor(trace, t));
    threads_.back().buffer.resize(options_.chunk);
  }
  result_.threads.resize(trace.num_threads());
}

void TraceReplayer::decode_one(ThreadState& ts) {
  if (ts.buffered > 0 || ts.has_sync || ts.cursor.done()) return;
  ts.buffered = ts.cursor.decode_mem_run(ts.buffer.data(), nullptr, options_.chunk);
  if (ts.buffered == 0 && !ts.cursor.done()) {
    // The next record is a sync event (or corruption — next() diagnoses it).
    if (ts.cursor.next(ts.sync)) {
      SYM_DCHECK(!ts.sync.is_mem(), "workload.replay")
          << "decode_mem_run stopped on a memory record";
      ts.has_sync = true;
    }
  }
}

bool TraceReplayer::retire_sync(std::size_t t) {
  ThreadState& ts = threads_[t];
  ThreadReplayStats& stats = result_.threads[t];
  const SymtRecord& sync = ts.sync;
  auto trace_error = [&](const std::string& what) {
    throw std::runtime_error("replay: thread " + std::to_string(t) + ": " + what);
  };

  switch (sync.op) {
    case SymtOp::Barrier: {
      if (!ts.arrived) {
        if (barrier_arrivals_ == 0) {
          barrier_id_ = sync.arg;
        } else if (sync.arg != barrier_id_) {
          trace_error("barrier id " + std::to_string(sync.arg) + " arrives at generation " +
                      std::to_string(barrier_generation_) + " carrying id " +
                      std::to_string(barrier_id_));
        }
        ts.arrived = true;
        ++barrier_arrivals_;
        ++stats.barriers;
        ++result_.sync_events;
      }
      if (barrier_arrivals_ < threads_.size()) {
        ++stats.blocked_visits;
        return false;
      }
      // Last arrival: the generation retires for everyone at once.
      for (auto& other : threads_) {
        if (other.arrived) {
          other.arrived = false;
          other.has_sync = false;
        }
      }
      barrier_arrivals_ = 0;
      ++barrier_generation_;
      return true;
    }
    case SymtOp::LockAcquire: {
      const auto it = lock_owner_.find(sync.arg);
      if (it != lock_owner_.end()) {
        if (it->second == t) trace_error("recursive acquire of lock " + std::to_string(sync.arg));
        ++stats.blocked_visits;
        return false;
      }
      lock_owner_.emplace(sync.arg, t);
      ++stats.lock_acquires;
      ++result_.sync_events;
      ts.has_sync = false;
      return true;
    }
    case SymtOp::LockRelease: {
      const auto it = lock_owner_.find(sync.arg);
      if (it == lock_owner_.end() || it->second != t) {
        trace_error("release of lock " + std::to_string(sync.arg) + " it does not hold");
      }
      lock_owner_.erase(it);
      ++stats.lock_releases;
      ++result_.sync_events;
      ts.has_sync = false;
      return true;
    }
    case SymtOp::Signal: {
      ++signal_count_[{sync.arg, t}];
      ++stats.signals;
      ++result_.sync_events;
      ts.has_sync = false;
      return true;
    }
    case SymtOp::Wait: {
      const std::size_t partner = sync.partner;
      if (partner >= threads_.size()) {
        trace_error("wait on nonexistent thread " + std::to_string(partner));
      }
      const auto sig = signal_count_.find({sync.arg, partner});
      std::uint64_t available = sig == signal_count_.end() ? 0 : sig->second;
      std::uint64_t& consumed = wait_consumed_[{sync.arg, partner, t}];
      if (available <= consumed) {
        ++stats.blocked_visits;
        return false;
      }
      ++consumed;
      ++stats.waits;
      ++result_.sync_events;
      ts.has_sync = false;
      return true;
    }
    default:
      trace_error("memory record reached the sync path");
  }
  return false;
}

SYM_HOT bool TraceReplayer::apply_chunk(std::size_t t, ThreadState& ts) {
  const std::size_t core = t % hierarchy_.num_cores();
  const cachesim::BatchSummary summary =
      hierarchy_.access_batch(core, ts.buffer.data(), ts.buffered);
  result_.totals += summary;
  result_.threads[t].mem_refs += summary.accesses;
  ts.buffered = 0;
  return true;
}

bool TraceReplayer::visit(std::size_t t) {
  ThreadState& ts = threads_[t];
  if (ts.buffered > 0) return apply_chunk(t, ts);
  if (ts.has_sync) return retire_sync(t);
  return false;  // exhausted
}

void TraceReplayer::report_deadlock() const {
  std::string detail;
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    const ThreadState& ts = threads_[t];
    if (ts.exhausted()) continue;
    if (!detail.empty()) detail += "; ";
    detail += "thread " + std::to_string(t);
    if (ts.has_sync) {
      detail += " blocked on " + to_string(ts.sync.op) + " " + std::to_string(ts.sync.arg);
      if (ts.sync.op == SymtOp::Wait) {
        detail += " from thread " + std::to_string(ts.sync.partner);
      }
      if (ts.sync.op == SymtOp::Barrier) {
        detail += " (" + std::to_string(barrier_arrivals_) + "/" +
                  std::to_string(threads_.size()) + " arrived)";
      }
    }
  }
  throw std::runtime_error("replay: deadlock — no thread can make progress: " + detail);
}

ReplayResult TraceReplayer::run() {
  if (ran_) throw std::logic_error("TraceReplayer::run() called twice");
  ran_ = true;

  for (;;) {
    bool all_done = true;
    for (const auto& ts : threads_) all_done &= ts.exhausted();
    if (all_done) break;

    for (auto& ts : threads_) decode_one(ts);
    ++result_.rounds;
    bool progress = false;
    for (std::size_t t = 0; t < threads_.size(); ++t) progress |= visit(t);
    if (!progress) report_deadlock();
  }
  return result_;
}

ReplayResult replay_trace(const SymtTrace& trace, cachesim::Hierarchy& hierarchy,
                          ReplayOptions options) {
  return TraceReplayer(trace, hierarchy, options).run();
}

}  // namespace symbiosis::workload
