// multithread.hpp — §3.3.4, two-phase allocation for multi-threaded apps.
//
// Threads of one process share data, so their raw mutual "interference" is
// high for the WRONG reason. Phase 1 therefore partitions each process's
// threads by occupancy-weight sorting (ignoring symbiosis); phase 2 runs
// the weighted interference-graph algorithm over ALL threads with the
// intra-process edges pinned — a very large weight for thread pairs that
// phase 1 co-located (MIN-CUT must keep them together) and zero for pairs
// it separated.
#pragma once

#include "sched/interference_graph.hpp"
#include "sched/policy.hpp"

namespace symbiosis::sched {

class MultiThreadAllocator final : public Allocator {
 public:
  /// Edge weight pinning phase-1 co-located thread pairs together; must
  /// dwarf any realizable weighted interference (occupancy ≤ filter
  /// entries, interference ≤ 1).
  static constexpr double kPinnedWeight = 1e12;

  explicit MultiThreadAllocator(std::uint64_t seed = 1) : seed_(seed) {}

  [[nodiscard]] std::string name() const override { return "multithread"; }
  [[nodiscard]] Allocation allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) override;

  /// Exposed for tests: the phase-1 intra-process grouping (thread profile
  /// index → phase-1 group within its process).
  [[nodiscard]] static std::vector<std::size_t> phase1_groups(
      const std::vector<TaskProfile>& profiles, std::size_t groups);

 private:
  std::uint64_t seed_;
};

}  // namespace symbiosis::sched
