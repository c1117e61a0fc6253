// stats.hpp — correlation coefficients (the Fig 2–5 counters-vs-occupancy
// bench).
#pragma once

#include <span>

namespace symbiosis::util {

/// Pearson correlation coefficient of two equally sized series.
/// Returns 0 when either series has zero variance.
[[nodiscard]] double pearson(std::span<const double> x, std::span<const double> y);

/// Spearman rank correlation (Pearson over ranks, average ranks for ties).
[[nodiscard]] double spearman(std::span<const double> x, std::span<const double> y);

}  // namespace symbiosis::util
