#include "stats/wilcoxon.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace ones::stats {

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

namespace {

/// Assign midranks to sorted values; returns ranks aligned with `order` and
/// the tie-correction term sum(t^3 - t) over tie groups.
struct RankOutcome {
  std::vector<double> ranks;
  double tie_term = 0.0;
};

RankOutcome midranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });

  RankOutcome out;
  out.ranks.assign(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + j) + 1.0;  // ranks are 1-based
    for (std::size_t k = i; k <= j; ++k) out.ranks[order[k]] = avg_rank;
    const double t = static_cast<double>(j - i + 1);
    if (t > 1.0) out.tie_term += t * t * t - t;
    i = j + 1;
  }
  return out;
}

}  // namespace

WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& x,
                                    const std::vector<double>& y) {
  ONES_EXPECT_MSG(x.size() == y.size(), "signed-rank test requires paired samples");
  std::vector<double> abs_diff;
  std::vector<int> sign;
  abs_diff.reserve(x.size());
  sign.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    if (d == 0.0) continue;  // drop zeros
    abs_diff.push_back(std::fabs(d));
    sign.push_back(d > 0.0 ? 1 : -1);
  }

  WilcoxonResult res;
  res.n_effective = abs_diff.size();
  const double n = static_cast<double>(abs_diff.size());
  if (abs_diff.empty()) return res;  // all pairs tied: no evidence either way

  const RankOutcome ro = midranks(abs_diff);
  double w_plus = 0.0;
  for (std::size_t i = 0; i < abs_diff.size(); ++i) {
    if (sign[i] > 0) w_plus += ro.ranks[i];
  }
  res.statistic = w_plus;

  const double mean = n * (n + 1.0) / 4.0;
  double var = n * (n + 1.0) * (2.0 * n + 1.0) / 24.0;
  var -= ro.tie_term / 48.0;  // tie correction
  if (var <= 0.0) return res;

  // Continuity correction toward the mean.
  const double cc = (w_plus > mean) ? -0.5 : (w_plus < mean ? 0.5 : 0.0);
  res.z = (w_plus - mean + cc) / std::sqrt(var);

  // Large W+ means x tends to exceed y.
  res.p_greater = 1.0 - normal_cdf(res.z);
  res.p_less = normal_cdf(res.z);
  res.p_two_sided = std::min(1.0, 2.0 * std::min(res.p_greater, res.p_less));
  return res;
}

}  // namespace ones::stats
