// interference_graph.hpp — §3.3.2/§3.3.3, the interference-graph algorithms.
//
// Graph construction (§3.3.2): the directed edge Pi→Pj carries Pi's
// interference with the core Pj last ran on (a process is assumed to
// interfere equally with every process of a given core). The directed
// graph is consolidated into an undirected one by summing the two
// directions; a balanced MIN-CUT then minimizes inter-group interference,
// i.e. maximizes the interference KEPT INSIDE each core's time-sliced
// group.
//
// The weighted variant (§3.3.3) multiplies each directed contribution by
// the source's occupancy weight — edge(P1,P2) = W1·I12 + W2·I21 — so a
// tiny-footprint process (whose symbiosis is low merely because its RBV is
// nearly empty) no longer masquerades as a heavy interferer.
#pragma once

#include "sched/mincut.hpp"
#include "sched/policy.hpp"

namespace symbiosis::sched {

/// Build the consolidated undirected interference graph.
/// @param weighted apply the §3.3.3 occupancy weighting
[[nodiscard]] SymMatrix build_interference_graph(const std::vector<TaskProfile>& profiles,
                                                 bool weighted);

/// Interference graph + balanced MIN-CUT: §3.3.2's plain graph ("graph"),
/// or with @p weighted §3.3.3's occupancy-weighted graph
/// ("weighted-graph"), the paper's best algorithm.
class GraphAllocator final : public Allocator {
 public:
  explicit GraphAllocator(bool weighted, std::uint64_t seed = 1)
      : weighted_(weighted), seed_(seed) {}

  [[nodiscard]] std::string name() const override {
    return weighted_ ? "weighted-graph" : "graph";
  }
  [[nodiscard]] Allocation allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) override;

 private:
  bool weighted_;
  std::uint64_t seed_;
};

}  // namespace symbiosis::sched
