#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace symbiosis::util {

namespace {

double mean(std::span<const double> xs) noexcept {
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

std::vector<double> ranks_of(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double pearson(std::span<const double> x, std::span<const double> y) {
  SYM_CHECK_EQ(x.size(), y.size(), "util.stats") << "pearson needs paired samples";
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double spearman(std::span<const double> x, std::span<const double> y) {
  SYM_CHECK_EQ(x.size(), y.size(), "util.stats") << "spearman needs paired samples";
  if (x.size() < 2) return 0.0;
  const auto rx = ranks_of(x);
  const auto ry = ranks_of(y);
  return pearson(rx, ry);
}

}  // namespace symbiosis::util
