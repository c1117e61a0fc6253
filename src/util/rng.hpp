// rng.hpp — deterministic pseudo-random number generation.
//
// All stochastic behaviour in the simulator (workload address streams, random
// replacement, randomised rounding in the MIN-CUT solver, mix sampling) flows
// through this generator so that every experiment is reproducible from a
// single seed. The engine is xoshiro256** seeded via SplitMix64; it is far
// faster than std::mt19937_64 and has no measurable bias for our use.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

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
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept {
    SYM_DCHECK(bound > 0, "util.rng") << "next_below(0) is undefined";
    // Lemire's nearly-divisionless bounded sampling with rejection.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t next_range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability @p p.
  [[nodiscard]] bool next_bool(double p) noexcept { return next_double() < p; }

  /// Standard normal variate (Box–Muller, cached second value).
  [[nodiscard]] double next_normal() noexcept;

  /// Exponential variate with rate @p lambda. A draw of exactly 0 is
  /// redrawn, so the stream advances one or more times.
  [[nodiscard]] double next_exponential(double lambda) noexcept {
    SYM_DCHECK(lambda > 0.0, "util.rng") << "rate must be positive";
    double u = next_double();
    while (u <= 0.0) u = next_double();
    return -std::log(u) / lambda;
  }

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
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

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
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept { return index_of(rng.next_double()); }

  /// Inverse CDF: the first index whose cumulative probability is >= @p u,
  /// or n-1 when none is.
  [[nodiscard]] std::size_t index_of(double u) const noexcept {
    // Branch-free lower bound over cdf_[0, n-1): every halving step is a
    // conditional move, so the search never mispredicts. The last entry is
    // never compared, which makes n-1 the fallback, as in a binary search
    // over [0, n-1].
    const double* const first = cdf_.data();
    const double* base = first;
    std::size_t len = cdf_.size() - 1;
    while (len > 1) {
      const std::size_t half = len / 2;
      base = base[half] < u ? base + half : base;
      len -= half;
    }
    // len is 1 here, or 0 when n == 1; base[0] is in range either way.
    return static_cast<std::size_t>(base - first) + (static_cast<std::size_t>(*base < u) & len);
  }

  /// index_of(@p u[i]) into @p out[i] for every i < @p n, with the keys
  /// searched in lockstep: each pass advances every key one halving level,
  /// so the n chains of dependent loads overlap instead of running one
  /// after another. The halving lengths depend only on the support size, so
  /// every lane takes index_of's exact path.
  void index_of_batch(const double* u, std::size_t* out, std::size_t n) const noexcept {
    if (n == 1) {  // one chain has nothing to overlap with; keep it in registers
      out[0] = index_of(u[0]);
      return;
    }
    const double* const first = cdf_.data();
    std::size_t len = cdf_.size() - 1;
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    while (len > 1) {
      const std::size_t half = len / 2;
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = first[out[i] + half] < u[i] ? out[i] + half : out[i];
      }
      len -= half;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += static_cast<std::size_t>(first[out[i]] < u[i]) & len;
    }
  }

  [[nodiscard]] std::size_t support() const noexcept { return cdf_.size(); }
  /// Cumulative probabilities; non-decreasing, the last entry exactly 1.0.
  [[nodiscard]] const std::vector<double>& cdf() const noexcept { return cdf_; }

 private:
  std::vector<double> cdf_;  // cumulative distribution, cdf_.back() == 1.0
};

}  // namespace symbiosis::util
