// mincut.hpp — balanced MIN-CUT solvers over interference graphs.
//
// §3.3.2: the interference-graph algorithms need a balanced partition that
// MINIMIZES inter-group edge weight (equivalently maximizes intra-group
// interference, so mutually hostile processes share a core and time-slice
// instead of thrashing each other). The paper used an SDP solver; its
// graphs have tens of nodes, so we provide:
//   * Exhaustive  — provably optimal for small n (the paper-scale regime);
//   * Greedy      — heaviest-edge constructive seeding;
//   * KernighanLin— classic pairwise-swap refinement of a greedy seed;
//   * Spectral    — Fiedler-vector embedding (power iteration with
//                   deflation) + balanced median split + KL polish, the
//                   moral equivalent of SDP relaxation + rounding;
//   * Auto        — Exhaustive when feasible, else Spectral.
// For more than two groups the solvers recurse hierarchically, exactly as
// §3.3.2 prescribes for quad-core machines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/allocation.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace symbiosis::sched {

/// Dense symmetric non-negative weight matrix (zero diagonal).
class SymMatrix {
 public:
  SymMatrix() = default;
  explicit SymMatrix(std::size_t n) : n_(n), w_(n * n, 0.0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Unchecked in release builds: at() sits inside the allocators'
  /// per-candidate O(n^2) evaluation loops (cut_weight/intra_weight are
  /// SYM_HOT roots), where vector::at's throw path would put an exception
  /// edge on every decision. Debug builds keep the bounds check.
  [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept {
    SYM_DCHECK_BOUNDS(i, n_, "sched.mincut");
    SYM_DCHECK_BOUNDS(j, n_, "sched.mincut");
    return w_[i * n_ + j];
  }
  void set(std::size_t i, std::size_t j, double v) {
    w_.at(i * n_ + j) = v;
    w_.at(j * n_ + i) = v;
  }
  void add(std::size_t i, std::size_t j, double v) {
    if (i == j) return;
    w_.at(i * n_ + j) += v;
    w_.at(j * n_ + i) += v;
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> w_;
};

enum class MinCutMethod { Exhaustive, Greedy, KernighanLin, Spectral, Auto };

[[nodiscard]] std::string to_string(MinCutMethod method);

/// Sum of weights crossing group boundaries (the objective to minimize).
[[nodiscard]] double cut_weight(const SymMatrix& w, const Allocation& alloc);

/// Sum of weights inside groups (the dual objective to maximize).
[[nodiscard]] double intra_weight(const SymMatrix& w, const Allocation& alloc);

/// Partition n = w.size() nodes into @p groups balanced groups minimizing
/// the cut. @p seed feeds the spectral tie-break randomization only —
/// results are deterministic for a fixed seed.
[[nodiscard]] Allocation balanced_min_cut(const SymMatrix& w, std::size_t groups,
                                          MinCutMethod method = MinCutMethod::Auto,
                                          std::uint64_t seed = 1);

}  // namespace symbiosis::sched
