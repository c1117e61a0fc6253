#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/check.hpp"

namespace symbiosis::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

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

Rng::result_type Rng::operator()() noexcept {
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

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
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

std::int64_t Rng::next_range(std::int64_t lo, std::int64_t hi) noexcept {
  SYM_DCHECK_LE(lo, hi, "util.rng");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) noexcept { return next_double() < p; }

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

double Rng::next_exponential(double lambda) noexcept {
  SYM_DCHECK(lambda > 0.0, "util.rng") << "rate must be positive";
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return -std::log(u) / lambda;
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

std::size_t ZipfSampler::sample(Rng& rng) const noexcept { return index_of(rng.next_double()); }

std::size_t ZipfSampler::index_of(double u) const noexcept {
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

}  // namespace symbiosis::util
