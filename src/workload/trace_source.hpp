// trace_source.hpp — .symt traces as machine workloads, and the
// generator→.symt converters.
//
// A SymtTaskStream feeds one thread of a .symt trace to the Machine; a
// trace's threads go in as one stream group (Machine::add_process), so they
// share a pid exactly like a generated multi-threaded process:
//
//   auto trace = std::make_shared<const SymtTrace>(SymtTrace::open(path));
//   StreamGroup threads;
//   for (std::size_t t = 0; t < trace->num_threads(); ++t)
//     threads.push_back(std::make_unique<SymtTaskStream>(trace, t, name));
//   machine.add_process(std::move(threads));
//
// SymtTaskStreams yield Step{gap, addr, is_write} from the thread's
// records. Synchronization records are NOT enforceable on this path (a
// TaskStream cannot block the machine's scheduler), so they are skipped and
// counted; sync-faithful replay is workload/replayer.hpp's job. Converted
// single-threaded synthetic traces carry no sync records, which is what
// makes generator→convert→machine replay bit-identical to direct
// generation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/benchmark_model.hpp"
#include "workload/symt.hpp"

namespace symbiosis::workload {

/// TaskStream over one thread of a shared SymtTrace. Sync records are
/// skipped (counted in skipped_syncs()); see the header comment.
class SymtTaskStream final : public TaskStream {
 public:
  SymtTaskStream(std::shared_ptr<const SymtTrace> trace, std::size_t thread, std::string name);

  [[nodiscard]] Step next() override;
  [[nodiscard]] bool complete() const override { return issued_ >= total_refs_; }
  void restart() override;
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::uint64_t refs_issued() const override { return issued_; }
  [[nodiscard]] std::uint64_t total_refs() const override { return total_refs_; }

  [[nodiscard]] std::uint64_t skipped_syncs() const noexcept { return skipped_syncs_; }

 private:
  std::shared_ptr<const SymtTrace> trace_;
  std::size_t thread_;
  std::string name_;
  SymtCursor cursor_;
  std::uint64_t total_refs_ = 0;  ///< memory records only
  std::uint64_t issued_ = 0;
  std::uint64_t skipped_syncs_ = 0;
  Step last_{};
};

// --- converters ------------------------------------------------------------

/// Record @p refs steps of @p stream into writer thread @p thread,
/// preserving compute gaps. Returns the number of steps recorded.
std::uint64_t record_stream(SymtWriter& writer, std::size_t thread, TaskStream& stream,
                            std::uint64_t refs);

/// Convert a mix of pool benchmarks to a multi-threaded .symt image: thread
/// i carries @p refs_per_thread references of benchmark names[i] generated
/// at machine-style disjoint base addresses with per-thread split seeds.
[[nodiscard]] std::vector<std::uint8_t> symt_from_benchmarks(
    const std::vector<std::string>& names, std::uint64_t refs_per_thread, std::uint64_t seed,
    const ScaleConfig& scale = {});

/// Direct-generation twin of replaying symt_from_benchmarks(...) with
/// TraceReplayer{chunk}: applies the same streams to @p hierarchy in the
/// same round-robin chunk interleaving WITHOUT going through the codec.
/// The trace-conformance suite and `trace_tools convert --verify` pin
/// generator→.symt→replay bit-identical to this.
cachesim::BatchSummary replay_generated(const std::vector<std::string>& names,
                                        std::uint64_t refs_per_thread, std::uint64_t seed,
                                        cachesim::Hierarchy& hierarchy, std::size_t chunk,
                                        const ScaleConfig& scale = {});

}  // namespace symbiosis::workload
