// Benchmark-side tracing: spans around the calls the workloads make into
// each library layer.
//
// A span is named "<layer>.<operation>" (layers are the src/sens module
// names; "bench" marks the benchmark's own request/burst/pass scopes). Each
// span records its wall interval, its parent, the obs work-counter delta and
// the pool_stats() delta across it. Spans are kept in memory and summarized
// when the run ends: per-name totals, per-layer self time (a span's time
// minus its child spans), and a Chrome-trace timeline through
// obs::TraceLog. A disabled tracer records nothing and costs one branch per
// span, which is how the untraced end-to-end runs use it.
//
// The driving thread is the only one that opens spans (pool work joins
// before every library call returns), so the open-span stack needs no lock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sens/obs/obs.hpp"
#include "sens/support/parallel.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// RAII span; `name` must be a string literal (it is stored, not copied).
  class Span {
   public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  struct Record {
    const char* name = nullptr;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t child_ns = 0;  ///< time covered by direct children
    std::size_t parent = kNoParent;
    sens::obs::CounterSnapshot counters{};  ///< delta across the span
    sens::PoolStats pool{};                 ///< delta across the span
    [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - begin_ns; }
    [[nodiscard]] std::uint64_t self_ns() const { return duration_ns() - child_ns; }
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  // --- summaries over every closed span with a given name ---

  [[nodiscard]] std::size_t count(const std::string& name) const;
  [[nodiscard]] double total_seconds(const std::string& name) const;
  /// Per-span durations in seconds, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] std::uint64_t counter_delta(const std::string& name,
                                            sens::obs::Counter c) const;
  [[nodiscard]] sens::PoolStats pool_delta(const std::string& name) const;

  struct LayerTime {
    std::string layer;
    std::size_t spans = 0;
    double self_seconds = 0.0;
  };
  /// Self time per layer (the name prefix before the first '.'), in
  /// first-seen order.
  [[nodiscard]] std::vector<LayerTime> layer_times() const;

  /// Write every span as a Chrome-trace / Perfetto JSON timeline.
  /// Returns false when the file could not be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  std::size_t open(const char* name);
  void close(std::size_t index);

  bool enabled_;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

}  // namespace perfbench
