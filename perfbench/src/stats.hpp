// Sample statistics, digests and the metric record shared by the workloads.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (the "type 7" rule of R and NumPy) of
/// `samples` at p in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double p);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// The tail percentile to report for `n` samples: the highest entry of the
/// ladder {99.9, 99, 95, 90, 75, 50} that is at most `target` and leaves at
/// least ten samples beyond it (n - ceil(p * n) >= 10). Returns 1.0 (the
/// maximum) when no ladder entry qualifies.
[[nodiscard]] double tail_percentile(std::size_t n, double target);

/// Median and tail of one latency series, with its sample count.
struct Latency {
  double median = 0.0;
  double tail = 0.0;
  double tail_p = 1.0;  ///< the percentile `tail` was taken at (1.0 = maximum)
  std::size_t count = 0;
  std::size_t windows = 0;  ///< windows the tail is the median over (0 = none)
};

[[nodiscard]] Latency summarize(const std::vector<double>& samples, double tail_target);

/// summarize(), with the tail taken per consecutive window of `window`
/// samples and the median of those window tails reported, so a host stall
/// that hits one window moves the tail of that window only. With fewer
/// than one full window it is summarize().
[[nodiscard]] Latency summarize_windowed(const std::vector<double>& samples, double tail_target,
                                         std::size_t window);

/// The median over consecutive windows of `window` entries of
/// sum(amount) / sum(seconds): a rate that a stall in one window cannot
/// move. With fewer than one full window, the overall rate.
[[nodiscard]] double windowed_rate(const std::vector<double>& amount,
                                   const std::vector<double>& seconds, std::size_t window);

/// "p99", "p99.9", "max": the label of a percentile from tail_percentile.
[[nodiscard]] std::string percentile_label(double p);

/// Order-sensitive 64-bit digest of words and doubles (bit patterns, so
/// equal digests mean equal bytes).
class Digest {
 public:
  void add(std::uint64_t x) {
    h_ ^= x + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    h_ *= 0x100000001b3ULL;
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(std::span<const double> xs) {
    for (const double x : xs) add(x);
  }
  void add(std::span<const std::uint32_t> xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (const std::uint32_t x : xs) add(static_cast<std::uint64_t>(x));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// True when `name` matches [A-Za-z0-9_.-]+ (the metric naming rule).
[[nodiscard]] bool valid_metric_name(const std::string& name);

/// One measured quantity: value, unit and the number of samples behind it
/// (1 for a single measurement or a deterministic count).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 1;
};

/// Process CPU time (all threads) in seconds.
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
