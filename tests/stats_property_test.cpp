// Parameterized property sweeps over the statistics layer: the Beta
// distribution identities (cdf/quantile inverse pair, sample moments,
// interval coverage) must hold across the whole (alpha, beta) parameter
// grid the predictor can produce, and the Wilcoxon tests must behave
// sensibly across effect sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "stats/beta.hpp"
#include "stats/wilcoxon.hpp"

namespace ones::stats {
namespace {

struct BetaParam {
  double alpha;
  double beta;
};

std::string beta_name(const testing::TestParamInfo<BetaParam>& info) {
  auto fmt = [](double x) {
    std::string s = std::to_string(x);
    for (auto& ch : s) {
      if (ch == '.') ch = 'p';
    }
    return s.substr(0, s.find('p') + 2);
  };
  // Appended rather than `"a" + ...`: GCC 12 at -O3 reports a false
  // -Wrestrict on prefix string insertion.
  std::string name = "a";
  name += fmt(info.param.alpha);
  name += "_b";
  name += fmt(info.param.beta);
  return name;
}

class BetaGrid : public testing::TestWithParam<BetaParam> {};

TEST_P(BetaGrid, QuantileInvertsCdf) {
  BetaDistribution d(GetParam().alpha, GetParam().beta);
  for (double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double x = d.quantile(p);
    EXPECT_NEAR(d.cdf(x), p, 1e-7);
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST_P(BetaGrid, CdfIsMonotone) {
  BetaDistribution d(GetParam().alpha, GetParam().beta);
  double prev = -1.0;
  for (int i = 1; i < 20; ++i) {
    const double c = d.cdf(i / 20.0);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST_P(BetaGrid, SampleMomentsMatchClosedForm) {
  BetaDistribution d(GetParam().alpha, GetParam().beta);
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 30000; ++i) stats.add(d.sample(rng));
  EXPECT_NEAR(stats.mean(), d.mean(), 6.0 * std::sqrt(d.variance() / 30000.0) + 1e-4);
  EXPECT_NEAR(stats.variance(), d.variance(), d.variance() * 0.1 + 1e-5);
}

TEST_P(BetaGrid, CredibleIntervalEmpiricalCoverage) {
  BetaDistribution d(GetParam().alpha, GetParam().beta);
  const auto [lo, hi] = d.credible_interval(0.9);
  Rng rng(11);
  int inside = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    if (x >= lo && x <= hi) ++inside;
  }
  EXPECT_NEAR(static_cast<double>(inside) / n, 0.9, 0.015);
}

TEST_P(BetaGrid, ModeWithinSupportAndUnimodalRegime) {
  const auto param = GetParam();
  BetaDistribution d(param.alpha, param.beta);
  const double m = d.mode();
  EXPECT_GE(m, 0.0);
  EXPECT_LE(m, 1.0);
  if (param.alpha > 1.0 && param.beta > 1.0) {
    // Unimodal: the density at the mode beats nearby points.
    EXPECT_GE(d.pdf(m), d.pdf(std::min(m + 0.05, 0.999)) - 1e-12);
    EXPECT_GE(d.pdf(m), d.pdf(std::max(m - 0.05, 0.001)) - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BetaGrid,
    testing::Values(BetaParam{1.0, 1.0}, BetaParam{1.0, 30.0}, BetaParam{2.0, 8.0},
                    BetaParam{5.0, 5.0}, BetaParam{10.0, 2.0}, BetaParam{20.0, 20.0},
                    BetaParam{1.5, 12.5}, BetaParam{40.0, 3.0}),
    beta_name);

class WilcoxonEffect : public testing::TestWithParam<double> {};

TEST_P(WilcoxonEffect, PowerGrowsWithEffectSize) {
  const double shift = GetParam();
  Rng rng(static_cast<std::uint64_t>(shift * 1000) + 3);
  std::vector<double> x, y;
  for (int i = 0; i < 120; ++i) {
    const double base = rng.uniform(50, 150);
    x.push_back(base);
    y.push_back(base + shift + rng.normal(0.0, 5.0));
  }
  const auto res = wilcoxon_signed_rank(x, y);
  if (shift >= 5.0) {
    EXPECT_LT(res.p_two_sided, 0.01) << "shift " << shift;
    EXPECT_LT(res.p_less, 0.01);
  }
  if (shift == 0.0) {
    EXPECT_GT(res.p_two_sided, 0.01);
  }
  // p_less + p_greater ~ 1 + point mass; both in [0, 1].
  EXPECT_GE(res.p_less, 0.0);
  EXPECT_LE(res.p_less, 1.0);
  EXPECT_GE(res.p_greater, 0.0);
  EXPECT_LE(res.p_greater, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Shifts, WilcoxonEffect, testing::Values(0.0, 5.0, 15.0, 40.0),
                         [](const testing::TestParamInfo<double>& shift_info) {
                           return "shift" + std::to_string(static_cast<int>(shift_info.param));
                         });

}  // namespace
}  // namespace ones::stats
