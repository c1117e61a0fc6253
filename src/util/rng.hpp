// rng.hpp — deterministic pseudo-random number generation.
//
// All stochastic behaviour in the simulator (workload address streams, random
// replacement, randomised rounding in the MIN-CUT solver, mix sampling) flows
// through this generator so that every experiment is reproducible from a
// single seed. The engine is xoshiro256** seeded via SplitMix64; it is far
// faster than std::mt19937_64 and has no measurable bias for our use.
#pragma once

#include <cstdint>
#include <vector>

namespace symbiosis::util {

/// SplitMix64 step; used for seeding and for cheap stateless mixing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedc0ffee15600dull) noexcept { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed (SplitMix64 expansion).
  void reseed(std::uint64_t seed) noexcept;

  /// Derive an independent child generator; stream @p stream_id selects the
  /// substream. Children of distinct ids are statistically independent.
  [[nodiscard]] Rng split(std::uint64_t stream_id) const noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound). bound must be > 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t next_range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Bernoulli trial with success probability @p p.
  [[nodiscard]] bool next_bool(double p) noexcept;

  /// Standard normal variate (Box–Muller, cached second value).
  [[nodiscard]] double next_normal() noexcept;

  /// Exponential variate with rate @p lambda.
  [[nodiscard]] double next_exponential(double lambda) noexcept;

  /// Fisher–Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4]{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Precomputed Zipf(s, n) sampler over {0, …, n-1}. Values near 0 are the
/// hottest. Used by workload models with skewed reuse (e.g. omnetpp, gcc).
class ZipfSampler {
 public:
  /// @param n     support size (> 0)
  /// @param skew  Zipf exponent s (0 = uniform; 1 ≈ classic Zipf)
  ZipfSampler(std::size_t n, double skew);

  /// Draw one index in [0, n): index_of(rng.next_double()).
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;

  /// Inverse CDF: the first index whose cumulative probability is >= @p u,
  /// or n-1 when none is.
  [[nodiscard]] std::size_t index_of(double u) const noexcept;

  [[nodiscard]] std::size_t support() const noexcept { return cdf_.size(); }
  /// Cumulative probabilities; non-decreasing, the last entry exactly 1.0.
  [[nodiscard]] const std::vector<double>& cdf() const noexcept { return cdf_; }

 private:
  std::vector<double> cdf_;  // cumulative distribution, cdf_.back() == 1.0
};

}  // namespace symbiosis::util
