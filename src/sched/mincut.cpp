#include "sched/mincut.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::sched {

std::string to_string(MinCutMethod method) {
  switch (method) {
    case MinCutMethod::Exhaustive: return "exhaustive";
    case MinCutMethod::Greedy: return "greedy";
    case MinCutMethod::KernighanLin: return "kernighan-lin";
    case MinCutMethod::Spectral: return "spectral";
    case MinCutMethod::Auto: return "auto";
  }
  return "?";
}

SYM_HOT double cut_weight(const SymMatrix& w, const Allocation& alloc) {
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) {
      if (alloc.group_of[i] != alloc.group_of[j]) total += w.at(i, j);
    }
  }
  return total;
}

SYM_HOT double intra_weight(const SymMatrix& w, const Allocation& alloc) {
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) {
      if (alloc.group_of[i] == alloc.group_of[j]) total += w.at(i, j);
    }
  }
  return total;
}

namespace {

/// Exhaustive optimal balanced 2..k-way cut via full enumeration.
Allocation solve_exhaustive(const SymMatrix& w, std::size_t groups) {
  const auto candidates = enumerate_balanced_allocations(w.size(), groups);
  const Allocation* best = nullptr;
  double best_cut = std::numeric_limits<double>::infinity();
  for (const auto& alloc : candidates) {
    const double cut = cut_weight(w, alloc);
    if (cut < best_cut) {
      best_cut = cut;
      best = &alloc;
    }
  }
  SYM_CHECK(best != nullptr, "sched.mincut") << "no candidate allocation enumerated";
  return *best;
}

/// Greedy constructive: repeatedly place the node with the largest
/// attraction (edge weight into a group) into the fullest-attracting group
/// with spare capacity. Attraction INSIDE a group is what we maximize.
Allocation solve_greedy(const SymMatrix& w, std::size_t groups) {
  const std::size_t n = w.size();
  auto capacity = balanced_group_sizes(n, groups);
  Allocation alloc;
  alloc.groups = groups;
  alloc.group_of.assign(n, static_cast<std::size_t>(-1));

  // Seed each group with one endpoint of the heaviest remaining edges so
  // hostile pairs start together rather than apart.
  std::vector<bool> placed(n, false);
  std::size_t placed_count = 0;

  // Seed group 0 with the heaviest edge's endpoints (they interfere most,
  // so they belong on the same core).
  double best_w = -1.0;
  std::size_t bi = 0, bj = (n > 1) ? 1 : 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (w.at(i, j) > best_w) {
        best_w = w.at(i, j);
        bi = i;
        bj = j;
      }
    }
  }
  alloc.group_of[bi] = 0;
  placed[bi] = true;
  ++placed_count;
  if (n > 1 && capacity[0] >= 2) {
    alloc.group_of[bj] = 0;
    placed[bj] = true;
    ++placed_count;
  }

  while (placed_count < n) {
    // Pick the unplaced node and target group with maximum gain.
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best_node = 0, best_group = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      for (std::size_t g = 0; g < groups; ++g) {
        std::size_t used = 0;
        double gain = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          if (alloc.group_of[j] == g) {
            ++used;
            gain += w.at(i, j);
          }
        }
        if (used >= capacity[g]) continue;
        // Prefer attaching to emptier groups on ties so seeds spread out.
        gain -= 1e-9 * static_cast<double>(used);
        if (gain > best_gain) {
          best_gain = gain;
          best_node = i;
          best_group = g;
        }
      }
    }
    alloc.group_of[best_node] = best_group;
    placed[best_node] = true;
    ++placed_count;
  }
  return alloc;
}

/// Kernighan–Lin style refinement: keep applying the single best
/// cross-group pair swap while it reduces the cut.
void kl_refine(const SymMatrix& w, Allocation& alloc) {
  const std::size_t n = w.size();
  bool improved = true;
  std::size_t rounds = 0;
  while (improved && rounds < 4 * n) {
    improved = false;
    ++rounds;
    double best_delta = -1e-12;
    std::size_t best_i = 0, best_j = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (alloc.group_of[i] == alloc.group_of[j]) continue;
        // Gain in intra-group weight if i and j swap groups: i's old group
        // trades its w(i,·) terms for w(j,·) and vice versa.
        double delta = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          if (k == i || k == j) continue;
          const bool k_with_i = alloc.group_of[k] == alloc.group_of[i];
          const bool k_with_j = alloc.group_of[k] == alloc.group_of[j];
          if (k_with_i) delta += w.at(j, k) - w.at(i, k);
          if (k_with_j) delta += w.at(i, k) - w.at(j, k);
        }
        // delta > 0 means the swap moves weight INTO groups (cut shrinks).
        if (delta > best_delta + 1e-12) {
          best_delta = delta;
          best_i = i;
          best_j = j;
          improved = true;
        }
      }
    }
    if (improved) std::swap(alloc.group_of[best_i], alloc.group_of[best_j]);
  }
  static obs::Counter& kl_passes = obs::counter("sched.mincut.kl_passes");
  kl_passes.add(rounds);
}

/// Fiedler-style spectral bisection: power-iterate M = (c·I − L) with the
/// all-ones direction deflated; the dominant remaining eigenvector is the
/// Laplacian's second-smallest (the Fiedler vector). A balanced split at
/// the median minimizes cut in the relaxation; KL polishes the rounding.
Allocation solve_spectral_2way(const SymMatrix& w, std::uint64_t seed) {
  const std::size_t n = w.size();
  std::vector<double> degree(n, 0.0);
  double max_degree = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) degree[i] += w.at(i, j);
    }
    max_degree = std::max(max_degree, degree[i]);
  }
  const double shift = max_degree + 1.0;

  util::Rng rng(seed);
  std::vector<double> v(n), next(n);
  for (auto& x : v) x = rng.next_double() - 0.5;

  auto deflate_and_normalize = [&](std::vector<double>& x) {
    const double mean = std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(n);
    for (auto& e : x) e -= mean;  // project out the all-ones eigenvector
    double norm = 0.0;
    for (const auto e : x) norm += e * e;
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      // Degenerate (e.g. all weights equal): fall back to an arbitrary
      // alternating direction.
      for (std::size_t i = 0; i < n; ++i) x[i] = (i % 2) ? 1.0 : -1.0;
      norm = std::sqrt(static_cast<double>(n));
    }
    for (auto& e : x) e /= norm;
  };

  deflate_and_normalize(v);
  for (int iter = 0; iter < 200; ++iter) {
    // next = (shift*I - L) v = shift*v - D*v + W*v
    for (std::size_t i = 0; i < n; ++i) {
      double acc = (shift - degree[i]) * v[i];
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) acc += w.at(i, j) * v[j];
      }
      next[i] = acc;
    }
    deflate_and_normalize(next);
    v.swap(next);
  }

  // Balanced median split over the Fiedler coordinates.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });

  Allocation alloc;
  alloc.groups = 2;
  alloc.group_of.assign(n, 0);
  const auto sizes = balanced_group_sizes(n, 2);
  for (std::size_t r = sizes[0]; r < n; ++r) alloc.group_of[order[r]] = 1;
  kl_refine(w, alloc);
  return alloc;
}

Allocation solve_2way(const SymMatrix& w, MinCutMethod method, std::uint64_t seed) {
  switch (method) {
    case MinCutMethod::Exhaustive:
      return solve_exhaustive(w, 2);
    case MinCutMethod::Greedy:
      return solve_greedy(w, 2);
    case MinCutMethod::KernighanLin: {
      Allocation alloc = solve_greedy(w, 2);
      kl_refine(w, alloc);
      return alloc;
    }
    case MinCutMethod::Spectral:
      return solve_spectral_2way(w, seed);
    case MinCutMethod::Auto:
      if (w.size() <= 16) return solve_exhaustive(w, 2);
      return solve_spectral_2way(w, seed);
  }
  throw std::invalid_argument("solve_2way: bad method");
}

/// Restrict @p w to @p nodes.
SymMatrix submatrix(const SymMatrix& w, const std::vector<std::size_t>& nodes) {
  SymMatrix sub(nodes.size());
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (std::size_t b = a + 1; b < nodes.size(); ++b) {
      sub.set(a, b, w.at(nodes[a], nodes[b]));
    }
  }
  return sub;
}

/// Hierarchical k-way: bisect, then recurse on each side (§3.3.2).
void hierarchical(const SymMatrix& w, const std::vector<std::size_t>& nodes, std::size_t groups,
                  MinCutMethod method, std::uint64_t seed, std::size_t group_base,
                  Allocation& out) {
  if (groups == 1) {
    for (const auto node : nodes) out.group_of[node] = group_base;
    return;
  }
  const SymMatrix sub = submatrix(w, nodes);
  const std::size_t left_groups = groups / 2;
  const std::size_t right_groups = groups - left_groups;

  Allocation split;
  if (left_groups == right_groups) {
    split = solve_2way(sub, method, seed);
  } else {
    // Unequal halves (odd group counts): split node counts proportionally
    // by solving a capacity-respecting greedy + KL pass.
    split = solve_greedy(sub, 2);
    kl_refine(sub, split);
  }

  std::vector<std::size_t> left, right;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    (split.group_of[i] == 0 ? left : right).push_back(nodes[i]);
  }
  hierarchical(w, left, left_groups, method, seed * 2 + 1, group_base, out);
  hierarchical(w, right, right_groups, method, seed * 2 + 2, group_base + left_groups, out);
}

}  // namespace

namespace {

/// Partition-balance postcondition (category "sched.partition"): every task
/// is labelled with an in-range group and no group is empty. When
/// @p exact_balance is set (2-way and exhaustive paths guarantee it), group
/// sizes must additionally match balanced_group_sizes up to permutation; the
/// hierarchical path with odd group counts may drift by more than one task,
/// so it only gets the weak form.
Allocation checked(Allocation alloc, std::size_t tasks, std::size_t groups, bool exact_balance) {
  SYM_CHECK_EQ(alloc.group_of.size(), tasks, "sched.partition");
  SYM_CHECK_EQ(alloc.groups, groups, "sched.partition");
  std::vector<std::size_t> sizes(groups, 0);
  for (const auto g : alloc.group_of) {
    SYM_CHECK_BOUNDS(g, groups, "sched.partition") << "task labelled with out-of-range group";
    ++sizes[g];
  }
  for (std::size_t g = 0; g < groups; ++g) {
    SYM_CHECK(sizes[g] > 0, "sched.partition") << "group " << g << " left empty";
  }
  if (exact_balance) {
    auto want = balanced_group_sizes(tasks, groups);
    std::sort(sizes.begin(), sizes.end());
    std::sort(want.begin(), want.end());
    SYM_CHECK(sizes == want, "sched.partition") << "group sizes not balanced";
  }
  return alloc;
}

}  // namespace

Allocation balanced_min_cut(const SymMatrix& w, std::size_t groups, MinCutMethod method,
                            std::uint64_t seed) {
  if (groups == 0) throw std::invalid_argument("balanced_min_cut: groups must be > 0");
  if (w.size() < groups) throw std::invalid_argument("balanced_min_cut: fewer nodes than groups");
  static obs::Counter& solves = obs::counter("sched.mincut.solves");
  solves.add(1);

  Allocation out;
  out.groups = groups;
  out.group_of.assign(w.size(), 0);
  if (groups == 1) return out;

  if (groups == 2) return checked(solve_2way(w, method, seed), w.size(), groups, true);

  // Exhaustive k-way stays exact when small enough.
  if (method == MinCutMethod::Exhaustive ||
      (method == MinCutMethod::Auto && w.size() <= 12 && groups <= 4)) {
    return checked(solve_exhaustive(w, groups), w.size(), groups, true);
  }

  std::vector<std::size_t> nodes(w.size());
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  hierarchical(w, nodes, groups, method, seed, 0, out);
  return checked(std::move(out), w.size(), groups, false);
}

}  // namespace symbiosis::sched
