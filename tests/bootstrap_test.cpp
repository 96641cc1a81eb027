// Unit tests for the bootstrap confidence interval of a relative reduction.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "stats/bootstrap.hpp"

namespace ones::stats {
namespace {

TEST(Bootstrap, DeterministicForSameSeed) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<double> y = {2, 2, 5, 4, 7, 6, 9, 8, 11, 10};
  const auto a = bootstrap_relative_reduction_ci(x, y, 500, 0.95, 42);
  const auto b = bootstrap_relative_reduction_ci(x, y, 500, 0.95, 42);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(Bootstrap, PairedDiffDetectsShift) {
  Rng rng(7);
  std::vector<double> x, y;
  for (int i = 0; i < 300; ++i) {
    const double base = rng.uniform(50, 200);
    x.push_back(base);
    y.push_back(base + 20.0 + rng.normal(0.0, 5.0));
  }
  const auto ci = bootstrap_relative_reduction_ci(x, y);
  EXPECT_LT(ci.lo, ci.point);
  EXPECT_GT(ci.hi, ci.point);
  EXPECT_GT(ci.lo, 0.0);  // x is significantly below y
}

TEST(Bootstrap, RelativeReductionMatchesPointEstimate) {
  Rng rng(9);
  std::vector<double> x, y;
  for (int i = 0; i < 300; ++i) {
    const double base = rng.uniform(100, 300);
    y.push_back(base);
    x.push_back(base * 0.7);  // 30% reduction
  }
  const auto ci = bootstrap_relative_reduction_ci(x, y);
  EXPECT_NEAR(ci.point, 0.30, 1e-9);
  EXPECT_GT(ci.lo, 0.25);
  EXPECT_LT(ci.hi, 0.35);
}

TEST(Bootstrap, NoEffectIntervalStraddlesZero) {
  Rng rng(11);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(rng.normal(100, 10));
    y.push_back(rng.normal(100, 10));
  }
  const auto ci = bootstrap_relative_reduction_ci(x, y);
  EXPECT_LT(ci.lo, 0.0);
  EXPECT_GT(ci.hi, 0.0);
}

TEST(Bootstrap, RejectsDegenerateInput) {
  EXPECT_THROW(bootstrap_relative_reduction_ci({}, {}), std::logic_error);
  EXPECT_THROW(bootstrap_relative_reduction_ci({1.0}, {1.0, 2.0}), std::logic_error);
  EXPECT_THROW(bootstrap_relative_reduction_ci({1.0}, {1.0}, 0), std::logic_error);
  EXPECT_THROW(bootstrap_relative_reduction_ci({1.0}, {1.0}, 100, 1.5), std::logic_error);
  EXPECT_THROW(bootstrap_relative_reduction_ci({1.0}, {0.0}), std::logic_error);
}

}  // namespace
}  // namespace ones::stats
