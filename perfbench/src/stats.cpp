#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "sens/support/mem.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double tail_percentile(std::size_t n, double target) {
  constexpr std::array<double, 6> kLadder{0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (const double p : kLadder) {
    if (p > target + 1e-12) continue;
    // Samples ranked above the p-th percentile; the epsilon keeps an exact
    // product such as 0.99 * 1000 from rounding up to the next rank.
    const auto at = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
    if (n >= at && n - at >= 10) return p;
  }
  return 1.0;
}

Latency summarize(const std::vector<double>& samples, double tail_target) {
  Latency out;
  out.count = samples.size();
  out.median = median(samples);
  out.tail_p = tail_percentile(samples.size(), tail_target);
  out.tail = quantile(samples, out.tail_p);
  return out;
}

Latency summarize_windowed(const std::vector<double>& samples, double tail_target,
                           std::size_t window) {
  Latency out = summarize(samples, tail_target);
  out.windows = window > 0 ? samples.size() / window : 0;
  if (out.windows == 0) return out;
  out.tail_p = tail_percentile(window, tail_target);
  std::vector<double> tails;
  for (std::size_t w = 0; w < out.windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    tails.push_back(quantile({first, first + static_cast<std::ptrdiff_t>(window)}, out.tail_p));
  }
  out.tail = median(std::move(tails));
  return out;
}

double windowed_rate(const std::vector<double>& amount, const std::vector<double>& seconds,
                     std::size_t window) {
  auto rate = [&](std::size_t begin, std::size_t end) {
    double a = 0.0;
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      a += amount[i];
      s += seconds[i];
    }
    return s > 0.0 ? a / s : 0.0;
  };
  const std::size_t n = std::min(amount.size(), seconds.size());
  if (window == 0 || n < window) return rate(0, n);
  std::vector<double> rates;
  for (std::size_t b = 0; b + window <= n; b += window) rates.push_back(rate(b, b + window));
  return median(std::move(rates));
}

std::string percentile_label(double p) {
  if (p >= 1.0) return "max";
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", p * 100.0);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-';
  });
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  return static_cast<double>(sens::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
