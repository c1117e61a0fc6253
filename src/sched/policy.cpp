#include "sched/policy.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sched/interference_graph.hpp"
#include "sched/multithread.hpp"
#include "util/rng.hpp"

namespace symbiosis::sched {

Allocation DefaultAllocator::allocate(const std::vector<TaskProfile>& profiles,
                                      std::size_t groups) {
  if (groups == 0) throw std::invalid_argument("DefaultAllocator: groups must be > 0");
  Allocation alloc;
  alloc.groups = groups;
  alloc.group_of.resize(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) alloc.group_of[i] = i % groups;
  return alloc;
}

Allocation RandomAllocator::allocate(const std::vector<TaskProfile>& profiles,
                                     std::size_t groups) {
  if (groups == 0) throw std::invalid_argument("RandomAllocator: groups must be > 0");
  const std::size_t n = profiles.size();
  const auto sizes = balanced_group_sizes(std::max(n, groups), groups);

  std::vector<std::size_t> slots;
  slots.reserve(n);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t k = 0; k < sizes[g] && slots.size() < n; ++k) slots.push_back(g);
  }
  util::Rng rng(seed_);
  rng.shuffle(slots);

  Allocation alloc;
  alloc.groups = groups;
  alloc.group_of = std::move(slots);
  return alloc;
}

Allocation RankAllocator::allocate(const std::vector<TaskProfile>& profiles,
                                   std::size_t groups) {
  if (groups == 0) throw std::invalid_argument("RankAllocator: groups must be > 0");
  const std::size_t n = profiles.size();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return profiles[a].*key_ > profiles[b].*key_;
  });

  const std::size_t group_size = (n + groups - 1) / groups;
  Allocation alloc;
  alloc.groups = groups;
  alloc.group_of.assign(n, 0);
  for (std::size_t rank = 0; rank < n; ++rank) {
    alloc.group_of[order[rank]] = std::min(rank / group_size, groups - 1);
  }
  return alloc;
}

std::unique_ptr<Allocator> make_allocator(const std::string& name, std::uint64_t seed) {
  if (name == "default") return std::make_unique<DefaultAllocator>();
  if (name == "random") return std::make_unique<RandomAllocator>(seed);
  if (name == "miss-rate") {
    return std::make_unique<RankAllocator>(name, &TaskProfile::l2_misses_per_kilo_instr);
  }
  if (name == "weight-sort") {
    return std::make_unique<RankAllocator>(name, &TaskProfile::occupancy_weight);
  }
  if (name == "graph") return std::make_unique<GraphAllocator>(/*weighted=*/false, seed);
  if (name == "weighted-graph") return std::make_unique<GraphAllocator>(/*weighted=*/true, seed);
  if (name == "multithread") return std::make_unique<MultiThreadAllocator>(seed);
  throw std::invalid_argument("unknown allocator: " + name);
}

}  // namespace symbiosis::sched
