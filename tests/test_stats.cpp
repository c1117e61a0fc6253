#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace symbiosis::util {
namespace {

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceIsZero) {
  std::vector<double> x = {1, 1, 1, 1};
  std::vector<double> y = {1, 2, 3, 4};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, IndependentNearZero) {
  Rng rng(7);
  std::vector<double> x(2000), y(2000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.next_double();
    y[i] = rng.next_double();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.08);
}

TEST(Spearman, MonotoneNonlinearIsOne) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6};
  std::vector<double> y = {1, 8, 27, 64, 125, 216};  // x^3: nonlinear, monotone
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 1.0);
}

TEST(Spearman, HandlesTies) {
  std::vector<double> x = {1, 2, 2, 3};
  std::vector<double> y = {1, 2, 2, 3};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

}  // namespace
}  // namespace symbiosis::util
