// Statistics helpers shared by the experiment harness and tests:
// streaming mean/min/max, proportion intervals, quantiles,
// least-squares line fits (used for the exponential-decay fits of the
// coverage and chemical-distance experiments).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sens {

/// Streaming mean/min/max accumulator.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Point estimate + Wilson score 95% interval for a binomial proportion.
struct Proportion {
  std::size_t successes = 0;
  std::size_t trials = 0;

  [[nodiscard]] double estimate() const;
  [[nodiscard]] double wilson_low() const;
  [[nodiscard]] double wilson_high() const;
};

/// Ordinary least squares fit y = intercept + slope * x.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] LineFit fit_line(std::span<const double> x, std::span<const double> y);

/// Fit y = A * exp(B x) by regressing log(y) on x; points with y <= 0 are
/// dropped (their count is reported via LineFit::n). slope = B,
/// intercept = log A.
[[nodiscard]] LineFit fit_exponential(std::span<const double> x, std::span<const double> y);

/// q-th sample quantile (q in [0,1]) using linear interpolation. The input
/// is copied and sorted.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace sens
