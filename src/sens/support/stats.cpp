#include "sens/support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sens {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double Proportion::estimate() const {
  return trials == 0 ? 0.0 : static_cast<double>(successes) / static_cast<double>(trials);
}

namespace {
constexpr double kZ95 = 1.959963984540054;

double wilson_bound(std::size_t s, std::size_t n, bool upper) {
  if (n == 0) return upper ? 1.0 : 0.0;
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(s) / nn;
  const double z2 = kZ95 * kZ95;
  const double denom = 1.0 + z2 / nn;
  const double center = p + z2 / (2.0 * nn);
  const double margin = kZ95 * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
  const double v = (center + (upper ? margin : -margin)) / denom;
  return std::clamp(v, 0.0, 1.0);
}
}  // namespace

double Proportion::wilson_low() const { return wilson_bound(successes, trials, false); }
double Proportion::wilson_high() const { return wilson_bound(successes, trials, true); }

LineFit fit_line(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("fit_line: size mismatch");
  LineFit fit;
  fit.n = x.size();
  if (fit.n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < fit.n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(fit.n);
  const double my = sy / static_cast<double>(fit.n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < fit.n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = syy == 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

LineFit fit_exponential(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("fit_exponential: size mismatch");
  std::vector<double> xs, logy;
  xs.reserve(x.size());
  logy.reserve(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (y[i] > 0.0) {
      xs.push_back(x[i]);
      logy.push_back(std::log(y[i]));
    }
  }
  return fit_line(xs, logy);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty input");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace sens
