#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"

namespace ones::stats {

namespace {

BootstrapCi percentile_interval(double point, std::vector<double> stats_sample,
                                double coverage) {
  std::sort(stats_sample.begin(), stats_sample.end());
  BootstrapCi ci;
  ci.point = point;
  ci.coverage = coverage;
  ci.lo = quantile(stats_sample, 0.5 * (1.0 - coverage));
  ci.hi = quantile(stats_sample, 1.0 - 0.5 * (1.0 - coverage));
  return ci;
}

}  // namespace

BootstrapCi bootstrap_relative_reduction_ci(const std::vector<double>& x,
                                            const std::vector<double>& y, int resamples,
                                            double coverage, std::uint64_t seed) {
  ONES_EXPECT_MSG(x.size() == y.size() && !x.empty(), "paired samples required");
  ONES_EXPECT(resamples > 0);
  ONES_EXPECT(coverage > 0.0 && coverage < 1.0);
  Rng rng(seed);
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  std::vector<double> stats_sample;
  stats_sample.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    double sx = 0.0, sy = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      sx += x[k];
      sy += y[k];
    }
    if (sy > 0.0) stats_sample.push_back((sy - sx) / sy);
  }
  ONES_EXPECT_MSG(!stats_sample.empty(), "degenerate bootstrap (all-zero baseline)");
  const double point = (mean_of(y) - mean_of(x)) / mean_of(y);
  return percentile_interval(point, std::move(stats_sample), coverage);
}

}  // namespace ones::stats
