#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/check.hpp"

namespace symbiosis::util {

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  has_cached_normal_ = false;
}

Rng Rng::split(std::uint64_t stream_id) const noexcept {
  // Mix the full state with the stream id through SplitMix64 so children of
  // different ids (and of different parents) diverge immediately.
  std::uint64_t acc = stream_id ^ 0xa02bdbf7bb3c0a7ull;
  for (const auto word : s_) {
    std::uint64_t t = acc ^ word;
    acc = splitmix64(t);
  }
  return Rng{acc};
}

std::int64_t Rng::next_range(std::int64_t lo, std::int64_t hi) noexcept {
  SYM_DCHECK_LE(lo, hi, "util.rng");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

ZipfSampler::ZipfSampler(std::size_t n, double skew) {
  SYM_CHECK(n > 0, "util.rng") << "ZipfSampler over an empty universe";
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against rounding
}

}  // namespace symbiosis::util
