#include "workload/trace_source.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace symbiosis::workload {

namespace {

/// Memory records of one trace thread (SymtTaskStream's total_refs).
std::uint64_t count_mem_refs(const SymtTrace& trace, std::size_t thread) {
  SymtCursor cursor(trace, thread);
  SymtRecord rec;
  std::uint64_t refs = 0;
  while (cursor.next(rec)) refs += rec.is_mem() ? 1 : 0;
  return refs;
}

}  // namespace

SymtTaskStream::SymtTaskStream(std::shared_ptr<const SymtTrace> trace, std::size_t thread,
                               std::string name)
    : trace_(std::move(trace)),
      thread_(thread),
      name_(std::move(name)),
      cursor_(*trace_, thread),
      total_refs_(count_mem_refs(*trace_, thread)) {
  if (total_refs_ == 0) {
    throw std::invalid_argument("SymtTaskStream: thread " + std::to_string(thread) +
                                " has no memory references");
  }
}

std::size_t SymtTaskStream::next_chunk(cachesim::MemRef* out, std::size_t n) {
  n = static_cast<std::size_t>(std::min<std::uint64_t>(n, total_refs_ - issued_));
  std::size_t done = cursor_.decode_mem_run(out, nullptr, n);
  while (done < n) {
    // decode_mem_run stopped at a sync record: skip it and decode on.
    SymtRecord rec;
    SYM_CHECK(cursor_.next(rec), "workload.trace")
        << "thread " << thread_ << " ends before its counted memory records";
    SYM_DCHECK(!rec.is_mem(), "workload.trace") << "decode_mem_run stopped on a memory record";
    ++skipped_syncs_;
    done += cursor_.decode_mem_run(out + done, nullptr, n - done);
  }
  issued_ += done;
  return done;
}

void SymtTaskStream::restart() {
  cursor_ = SymtCursor(*trace_, thread_);
  issued_ = 0;
  skipped_syncs_ = 0;
}

std::uint64_t record_stream(SymtWriter& writer, std::size_t thread, TaskStream& stream,
                            std::uint64_t refs) {
  std::vector<cachesim::MemRef> chunk(
      static_cast<std::size_t>(std::min<std::uint64_t>(refs, 4096)));
  std::uint64_t recorded = 0;
  while (recorded < refs) {
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunk.size(), refs - recorded));
    const std::size_t n = stream.next_chunk(chunk.data(), want);
    if (n == 0) break;  // the run completed
    for (std::size_t i = 0; i < n; ++i) {
      writer.append_mem(thread, chunk[i].addr, chunk[i].is_write, chunk[i].gap);
    }
    recorded += n;
  }
  return recorded;
}

std::vector<std::uint8_t> symt_from_benchmarks(const std::vector<std::string>& names,
                                               std::uint64_t refs_per_thread,
                                               std::uint64_t seed, const ScaleConfig& scale) {
  if (names.empty()) throw std::invalid_argument("symt_from_benchmarks: empty mix");
  SymtWriter writer(names.size());
  // The calling thread builds every model, so the first unknown name in
  // index order throws, and sizes every stream to its worst case. Whatever
  // a worker allocates stays resident in its own malloc arena, so a worker
  // that built a model or grew a vector would make peak RSS depend on which
  // worker ran which task.
  const util::Rng root(seed);
  std::vector<std::unique_ptr<Workload>> workloads;
  workloads.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    // Disjoint 1 TiB address spaces, the machine::address_space_base layout.
    const Addr base = static_cast<Addr>(i + 1) << 40;
    workloads.push_back(make_spec_workload(names[i], base, root.split(i), scale));
    // Capped, so that a count no vector can hold fails in reserve().
    const std::uint64_t records = std::min({refs_per_thread, workloads[i]->total_refs(),
                                            std::uint64_t{SIZE_MAX / kSymtMaxMemRecordBytes}});
    writer.reserve(i, records * kSymtMaxMemRecordBytes);
  }
  // Stream i depends only on its model, base and seed, and each task appends
  // to its own stream: the image does not depend on the pool size.
  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  util::ThreadPool pool(std::min(names.size(), hardware));
  pool.parallel_for(0, names.size(), [&](std::size_t i) {
    record_stream(writer, i, *workloads[i], refs_per_thread);
  });
  return writer.finish();
}

cachesim::BatchSummary replay_generated(const std::vector<std::string>& names,
                                        std::uint64_t refs_per_thread, std::uint64_t seed,
                                        cachesim::Hierarchy& hierarchy, std::size_t chunk,
                                        const ScaleConfig& scale) {
  if (names.empty()) throw std::invalid_argument("replay_generated: empty mix");
  if (chunk == 0) throw std::invalid_argument("replay_generated: zero chunk");
  const util::Rng root(seed);
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<std::uint64_t> remaining(names.size(), refs_per_thread);
  workloads.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Addr base = static_cast<Addr>(i + 1) << 40;
    workloads.push_back(make_spec_workload(names[i], base, root.split(i), scale));
  }

  cachesim::BatchSummary totals;
  std::vector<cachesim::MemRef> buffer(chunk);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(chunk, remaining[i]));
      const std::size_t n = workloads[i]->next_chunk(buffer.data(), want);
      if (n == 0) continue;
      remaining[i] -= n;
      totals += hierarchy.access_batch(i % hierarchy.num_cores(), buffer.data(), n);
      any = true;
    }
  }
  return totals;
}

}  // namespace symbiosis::workload
