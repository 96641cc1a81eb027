// Non-parametric Wilcoxon tests (paper Table 4).
//
// The paper compares per-job JCT of ONES against each baseline with a
// Wilcoxon test: a two-sided test (hypothesis: distributions equivalent,
// rejected with p << 0.05) and a "one-sided negative test" (hypothesis:
// ONES results are smaller; accepted because p is close to 1 under the
// paper's reporting convention). Both come from one paired signed-rank test
// (same jobs under two schedulers) with normal approximation + tie
// correction.
#pragma once

#include <vector>

namespace ones::stats {

struct WilcoxonResult {
  double statistic = 0.0;    ///< W+ (sum of positive-difference ranks)
  double z = 0.0;            ///< normal-approximation z score
  double p_two_sided = 1.0;  ///< H1: distributions differ
  double p_less = 1.0;       ///< H1: first sample stochastically smaller
  double p_greater = 1.0;    ///< H1: first sample stochastically greater
  std::size_t n_effective = 0;  ///< pairs used (zeros dropped)
};

/// Paired Wilcoxon signed-rank test on samples x, y of equal length.
/// Zero differences are dropped (Wilcoxon's original treatment).
WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& x,
                                    const std::vector<double>& y);

/// Standard normal CDF.
double normal_cdf(double z);

}  // namespace ones::stats
