#include "sched/interference_graph.hpp"

#include <stdexcept>

#include "obs/recorder.hpp"

namespace symbiosis::sched {

namespace {

/// Flight-recorder payload for one graph-based allocator decision: the
/// upper triangle of @p w plus the cut/intra split of the chosen mapping.
/// Only built when the recorder is enabled (SYM_RECORD skips the call).
[[maybe_unused]] obs::AllocatorDecisionEvent decision_event(const std::string& allocator,
                                                            const SymMatrix& w,
                                                            const Allocation& alloc) {
  obs::AllocatorDecisionEvent ev;
  ev.allocator = allocator;
  ev.chosen_key = alloc.key();
  ev.tasks = w.size();
  ev.cut_weight = cut_weight(w, alloc);
  ev.intra_weight = intra_weight(w, alloc);
  ev.edge_weights.reserve(w.size() * (w.size() - 1) / 2);
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) ev.edge_weights.push_back(w.at(i, j));
  }
  return ev;
}

}  // namespace

SymMatrix build_interference_graph(const std::vector<TaskProfile>& profiles, bool weighted) {
  const std::size_t n = profiles.size();
  SymMatrix w(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // Directed contribution Pi→Pj: Pi's interference with Pj's core.
      double contribution = profiles[i].interference_with(profiles[j].last_core);
      if (weighted) contribution *= profiles[i].occupancy_weight;  // §3.3.3
      w.add(i, j, contribution);  // consolidation: both directions sum here
    }
  }
  return w;
}

Allocation GraphAllocator::allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) {
  if (profiles.size() < groups) {
    throw std::invalid_argument("GraphAllocator: fewer tasks than groups");
  }
  const SymMatrix w = build_interference_graph(profiles, weighted_);
  Allocation alloc = balanced_min_cut(w, groups, MinCutMethod::Auto, seed_);
  SYM_RECORD(decision_event(name(), w, alloc));
  return alloc;
}

}  // namespace symbiosis::sched
