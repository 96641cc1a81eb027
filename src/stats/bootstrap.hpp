// Bootstrap confidence intervals for the evaluation harness.
//
// The Wilcoxon tests (Table 4) answer "is the JCT difference real?"; the
// bootstrap answers "how big is it?" with an interval. Used by the Fig 15
// bench to attach 95% CIs to the headline reduction percentages.
#pragma once

#include <cstdint>
#include <vector>

namespace ones::stats {

struct BootstrapCi {
  double point = 0.0;  ///< statistic on the original sample
  double lo = 0.0;     ///< lower bound of the interval
  double hi = 0.0;     ///< upper bound
  double coverage = 0.95;
};

/// Percentile-bootstrap CI for the relative reduction
/// (mean(y) - mean(x)) / mean(y), with (x, y) paired — "x is this many
/// percent below y".
BootstrapCi bootstrap_relative_reduction_ci(const std::vector<double>& x,
                                            const std::vector<double>& y,
                                            int resamples = 2000,
                                            double coverage = 0.95,
                                            std::uint64_t seed = 1);

}  // namespace ones::stats
