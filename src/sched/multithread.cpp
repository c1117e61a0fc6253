#include "sched/multithread.hpp"

#include <map>
#include <stdexcept>

#include "sched/weight_sort.hpp"

namespace symbiosis::sched {

std::vector<std::size_t> MultiThreadAllocator::phase1_groups(
    const std::vector<TaskProfile>& profiles, std::size_t groups) {
  std::vector<std::size_t> result(profiles.size(), 0);

  std::map<std::size_t, std::vector<std::size_t>> by_pid;
  for (std::size_t i = 0; i < profiles.size(); ++i) by_pid[profiles[i].pid].push_back(i);

  WeightSortAllocator weight_sort;
  for (const auto& [pid, members] : by_pid) {
    if (members.size() <= 1) continue;  // single-threaded: nothing to split
    std::vector<TaskProfile> subset;
    subset.reserve(members.size());
    for (const auto idx : members) subset.push_back(profiles[idx]);
    const std::size_t sub_groups = std::min(groups, members.size());
    const Allocation intra = weight_sort.allocate(subset, sub_groups);
    for (std::size_t k = 0; k < members.size(); ++k) {
      result[members[k]] = intra.group_of[k];
    }
  }
  return result;
}

Allocation MultiThreadAllocator::allocate(const std::vector<TaskProfile>& profiles,
                                          std::size_t groups) {
  if (profiles.size() < groups) {
    throw std::invalid_argument("MultiThreadAllocator: fewer threads than groups");
  }

  // Phase 1: intra-process thread grouping by occupancy weight (§3.3.1).
  const std::vector<std::size_t> phase1 = phase1_groups(profiles, groups);

  // Phase 2: weighted interference graph over all threads (§3.3.3) with
  // intra-process edges pinned by the phase-1 verdict.
  SymMatrix w = build_interference_graph(profiles, /*weighted=*/true);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = i + 1; j < profiles.size(); ++j) {
      if (profiles[i].pid != profiles[j].pid) continue;
      w.set(i, j, phase1[i] == phase1[j] ? kPinnedWeight : 0.0);
    }
  }
  return balanced_min_cut(w, groups, MinCutMethod::Auto, seed_);
}

}  // namespace symbiosis::sched
