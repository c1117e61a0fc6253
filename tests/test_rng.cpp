#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace symbiosis::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitIndependence) {
  Rng parent(7);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (c1() == c2());
  EXPECT_LT(equal, 3);
  // Splitting again with the same id reproduces the same stream.
  Rng c1b = parent.split(1);
  Rng c1a = parent.split(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(c1a(), c1b());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(42);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng rng(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const auto v = rng.next_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BoolProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(ZipfSampler, UniformWhenSkewZero) {
  ZipfSampler z(10, 0.0);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(ZipfSampler, SkewConcentratesOnHead) {
  ZipfSampler z(1000, 1.0);
  Rng rng(29);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) head += (z.sample(rng) < 10);
  // Zipf(1.0, 1000): top-10 mass = H(10)/H(1000) ≈ 0.39.
  EXPECT_GT(head, n * 0.3);
  EXPECT_LT(head, n * 0.5);
}

/// The binary search ZipfSampler used before its branch-free lower bound,
/// kept as the reference: the first cdf entry >= u within [0, n-1].
std::size_t binary_search_index(const std::vector<double>& cdf, double u) {
  std::size_t lo = 0, hi = cdf.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(ZipfSampler, IndexOfMatchesBinarySearchExactly) {
  // Every CDF entry and its floating-point neighbours are the inputs where
  // an off-by-one in the search would show; 1M random draws per sampler
  // cover the rest. Together they pin sample()'s RNG-to-index mapping.
  // Skew 8 makes the tail terms vanish next to the sum, so its CDF ends in
  // a run of equal entries, where only the first may be returned.
  const std::vector<double> uniform = [] {
    Rng rng(37);
    std::vector<double> u(1'000'000);
    for (double& x : u) x = rng.next_double();
    return u;
  }();
  for (const std::size_t n : {1, 2, 3, 1000, 4096, 4915}) {
    for (const double skew : {0.0, 0.7, 0.99, 1.1, 8.0}) {
      const ZipfSampler z(n, skew);
      const std::vector<double>& cdf = z.cdf();
      ASSERT_EQ(cdf.size(), n);
      std::vector<double> probes{0.0, std::nextafter(1.0, 0.0)};
      for (const double c : cdf) {
        probes.push_back(c);
        probes.push_back(std::nextafter(c, 0.0));
        probes.push_back(std::nextafter(c, 2.0));
      }
      for (const double u : probes) {
        ASSERT_EQ(z.index_of(u), binary_search_index(cdf, u))
            << "n=" << n << " skew=" << skew << " u=" << u;
      }
      for (const double u : uniform) {
        ASSERT_EQ(z.index_of(u), binary_search_index(cdf, u))
            << "n=" << n << " skew=" << skew << " u=" << u;
      }
    }
  }
}

TEST(ZipfSampler, IndexOfBatchMatchesIndexOfLaneByLane) {
  // The lockstep search must give every key index_of's answer, on the same
  // n x skew grid (skew 8's duplicate-tail CDF, n = 1 and 2 included), with
  // the same probes, at batch sizes 1, 3 and 64.
  const std::vector<double> uniform = [] {
    Rng rng(43);
    std::vector<double> u(200'000);
    for (double& x : u) x = rng.next_double();
    return u;
  }();
  for (const std::size_t n : {1, 2, 3, 1000, 4096, 4915}) {
    for (const double skew : {0.0, 0.7, 0.99, 1.1, 8.0}) {
      const ZipfSampler z(n, skew);
      std::vector<double> probes{0.0, std::nextafter(1.0, 0.0)};
      for (const double c : z.cdf()) {
        probes.push_back(c);
        probes.push_back(std::nextafter(c, 0.0));
        probes.push_back(std::nextafter(c, 2.0));
      }
      probes.insert(probes.end(), uniform.begin(), uniform.end());
      std::vector<std::size_t> got(probes.size());
      for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
        for (std::size_t at = 0; at < probes.size(); at += batch) {
          const std::size_t m = std::min(batch, probes.size() - at);
          z.index_of_batch(probes.data() + at, got.data() + at, m);
        }
        for (std::size_t i = 0; i < probes.size(); ++i) {
          ASSERT_EQ(got[i], z.index_of(probes[i]))
              << "n=" << n << " skew=" << skew << " batch=" << batch << " u=" << probes[i];
        }
      }
    }
  }
}

TEST(ZipfSampler, SampleIsIndexOfNextDouble) {
  const ZipfSampler z(4096, 0.99);
  Rng a(41);
  Rng b(41);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(z.sample(a), z.index_of(b.next_double()));
}

TEST(ZipfSampler, SamplesInSupport) {
  ZipfSampler z(7, 0.8);
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.sample(rng), 7u);
}

}  // namespace
}  // namespace symbiosis::util
