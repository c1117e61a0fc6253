// policy.hpp — the resource-allocation policy interface, the rank
// allocator (§3.3.1 and the miss-rate baseline), the placement baselines and
// the allocator registry.
//
// §3.2: allocation decisions are made in a user-level monitoring process
// that periodically reads the per-process signature structures from the OS
// and writes back affinity assignments. Policies therefore consume only a
// TaskProfile snapshot — never the machine itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sched/allocation.hpp"

namespace symbiosis::sched {

/// Per-task snapshot handed to a policy (one allocator invocation's view).
struct TaskProfile {
  std::size_t task_index = 0;  ///< position in the profile vector
  std::size_t pid = 0;         ///< threads of one process share a pid
  std::string name;

  // Bloom-filter signature aggregates (window means; §3.1 metrics):
  double occupancy_weight = 0.0;           ///< mean popcount(RBV)
  std::vector<double> symbiosis_per_core;  ///< mean popcount(RBV ⊕ CF[c])
  std::size_t last_core = 0;

  // Conventional event counter (for the miss-rate baseline of §6 / [40]):
  double l2_misses_per_kilo_instr = 0.0;

  /// Interference metric with @p core: 1 / symbiosis, clamped (§3.3.2).
  [[nodiscard]] double interference_with(std::size_t core) const {
    const double sym = core < symbiosis_per_core.size() ? symbiosis_per_core[core] : 0.0;
    return sym < 1.0 ? 1.0 : 1.0 / sym;
  }
};

/// A resource-allocation policy: profiles in, process→group mapping out.
class Allocator {
 public:
  virtual ~Allocator() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// @param groups number of cores to fill (= groups in the result)
  [[nodiscard]] virtual Allocation allocate(const std::vector<TaskProfile>& profiles,
                                            std::size_t groups) = 0;
};

/// Rank-and-chunk placement: sort tasks by @p key, largest first (stable on
/// ties), and give each core the next ⌈P/N⌉ of them; the final group may be
/// smaller. Keyed on RBV occupancy weight this is §3.3.1's Weight Sorting
/// Algorithm ("weight-sort"): heavy-footprint processes end up time-sliced
/// on one core instead of thrashing the shared L2 together. Keyed on L2
/// MPKI it is the related-work miss-rate baseline ([40] and §2.2's
/// critique; "miss-rate"), which isolates the value of the Bloom-filter
/// occupancy weight.
class RankAllocator final : public Allocator {
 public:
  using Key = double TaskProfile::*;

  RankAllocator(std::string name, Key key) : name_(std::move(name)), key_(key) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] Allocation allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) override;

 private:
  std::string name_;
  Key key_;
};

// --- baselines (not from the paper's §3.3; used as comparison anchors) ---

/// OS-default placement: tasks spread round-robin in arrival order (what
/// the paper's Fig 14 calls the "default schedule").
class DefaultAllocator final : public Allocator {
 public:
  [[nodiscard]] std::string name() const override { return "default"; }
  [[nodiscard]] Allocation allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) override;
};

/// Uniform random balanced placement (deterministic for a fixed seed).
class RandomAllocator final : public Allocator {
 public:
  explicit RandomAllocator(std::uint64_t seed = 1) : seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] Allocation allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) override;

 private:
  std::uint64_t seed_;
};

/// Registry: "default" | "random" | "miss-rate" | "weight-sort" | "graph" |
/// "weighted-graph" | "multithread"; throws std::invalid_argument on
/// unknown names.
[[nodiscard]] std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                                        std::uint64_t seed = 1);

}  // namespace symbiosis::sched
