// Observability layer (DESIGN.md §2.10): two strictly separated metric
// classes.
//
//  1. Deterministic *work counters* — pure functions of (seed, workload):
//     Dijkstra heap pops / arc relaxations, BFS visits, GridKnn cells
//     scanned / candidates examined, oracle verdicts, epoch replays vs
//     resyncs, fault casualties. Every kernel tallies its own work in plain
//     stack locals and flushes once per run/query into a per-thread counter
//     block; uint64 addition commutes, so the merged totals are
//     bit-identical at any `--threads` value. These may enter bench
//     `--json` and are cmp'd by the bench-json CI job.
//
//  2. *Timing observables* — span timers (via `ScopedSpan` in
//     support/timer.hpp feeding `TraceLog`), latency histograms, pool
//     utilization. Machine-dependent by nature; stdout-only, never JSON.
//
// The whole layer compiles out under -DSENS_OBS_ENABLED=0 (CMake option
// `SENS_OBS=OFF`): the `SENS_OBS(...)` macro drops its arguments textually,
// so instrumented hot loops carry zero overhead in the compiled-out build
// (asserted <2% even when ON by scripts/check_obs_overhead.sh).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef SENS_OBS_ENABLED
#define SENS_OBS_ENABLED 1
#endif

#if SENS_OBS_ENABLED
/// Expands to its arguments when the obs layer is compiled in, to nothing
/// otherwise. Use for statement-scope instrumentation only — never as the
/// sole body of an if/else (the OFF expansion would capture the next
/// statement); brace such sites.
#define SENS_OBS(...) __VA_ARGS__
#else
#define SENS_OBS(...)
#endif

namespace sens::obs {

/// Deterministic work counters. Each is a pure function of (seed, workload)
/// — never of thread count, scheduling, or wall clock — which is what
/// licenses putting them into bench `--json` (DESIGN.md §2.10).
enum class Counter : std::uint32_t {
  kDijkstraRuns = 0,        ///< single-source runs completed
  kDijkstraHeapPops,        ///< settled heap extractions
  kDijkstraRelaxedArcs,     ///< arcs examined for relaxation
  kBfsRuns,                 ///< single-source runs completed
  kBfsVisits,               ///< vertices labeled (incl. source)
  kGridKnnQueries,          ///< nearest_into calls
  kGridKnnCellsScanned,     ///< grid cells whose bucket was read
  kGridKnnCandidates,       ///< candidate points offered to a selector
  kOracleCertified,         ///< serve_batch kCertified verdicts (both engines)
  kOracleFallback,          ///< serve_batch exact-Dijkstra runs (both engines)
  kOracleDisconnected,      ///< serve_batch kDisconnected verdicts (both engines)
  kEpochJournalReplays,     ///< overlay deltas replayed by EpochQueryEngine
  kEpochResyncs,            ///< full snapshot resyncs (journal truncated)
  kFaultNodesFailed,        ///< nodes killed by apply_faults
  kFaultEdgesLostEndpoint,  ///< edges lost to a dead endpoint
  kFaultEdgesLostLink,      ///< edges lost to targeted link failure
  kDynamicNodesScanned,     ///< slots a DynamicHng repair visited (cohorts + reverse k-NN)
  kNnLinkPointsCounted,     ///< points offered to the NN-SENS link-test visitor (knn_selects)
  kCount
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name, used verbatim in the bench `--json` counter
/// table (so renaming a counter is a visible CI diff).
[[nodiscard]] const char* counter_name(Counter c) noexcept;

using CounterSnapshot = std::array<std::uint64_t, kCounterCount>;

/// Process-wide counter registry. Writers hit a per-thread block of relaxed
/// atomics (registered once per thread under a mutex, never deallocated, so
/// blocks safely outlive their threads); readers sum across blocks. Relaxed
/// ordering is sufficient: counters are independent monotone tallies and
/// snapshot() only promises the exact totals once the workload's threads
/// have joined — which parallel_for_chunks guarantees before returning.
class CounterRegistry {
 public:
  static CounterRegistry& global();

  void add(Counter c, std::uint64_t n) noexcept {
    block().v[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] CounterSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t value(Counter c) const;

  /// Zero every registered block (blocks stay registered — thread caches
  /// remain valid). Tests call this between determinism trials.
  void reset();

 private:
  struct Block {
    std::array<std::atomic<std::uint64_t>, kCounterCount> v{};
  };

  CounterRegistry() = default;
  Block& block();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Block>> blocks_;
};

/// Convenience writer used by the `SENS_OBS(...)` flush sites.
inline void add(Counter c, std::uint64_t n) { CounterRegistry::global().add(c, n); }

/// Log2-bucketed latency histogram (nanoseconds). Bucket b holds samples in
/// [2^(b-1), 2^b); bucket 0 holds exact zeros. Timing class: stdout-only,
/// never `--json` (DESIGN.md §2.10).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(uint64) ∈ [0, 64]

  void record(std::uint64_t ns) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t min_ns() const noexcept { return count_ ? min_ns_ : 0; }
  [[nodiscard]] std::uint64_t max_ns() const noexcept { return max_ns_; }
  [[nodiscard]] double mean_ns() const noexcept;

  /// Upper edge of the bucket containing quantile p ∈ [0, 1], clamped to
  /// the observed [min, max] — a conservative (over-)estimate with ≤2x
  /// bucket resolution, plenty for p50/p95/p99 reporting.
  [[nodiscard]] std::uint64_t percentile_ns(double p) const noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t min_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

/// Span collector behind the `ScopedSpan` sink hook (support/timer.hpp).
/// Aggregates per-name totals for the bench `[obs]` footer and, when asked
/// to keep events, exports a Chrome-trace/Perfetto JSON timeline
/// (`--trace FILE`). Timing class: stdout/file only, never `--json`.
class TraceLog {
 public:
  static TraceLog& global();

  /// Install this log as the process span sink. keep_events retains the
  /// individual spans for write_chrome_trace; without it only per-name
  /// totals accumulate (cheaper, enough for the footer).
  void enable(bool keep_events);
  void disable();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  struct SpanTotal {
    std::string name;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };

  [[nodiscard]] std::vector<SpanTotal> totals() const;  // first-seen order
  [[nodiscard]] std::size_t event_count() const;

  /// Chrome trace event format: {"traceEvents":[{"ph":"X",...}]}. Load in
  /// chrome://tracing or ui.perfetto.dev. Timestamps are µs relative to
  /// the earliest recorded span.
  void write_chrome_trace(std::ostream& out) const;

  void clear();

  /// Sink entry point (called by ScopedSpan destructors on any thread).
  void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns);

 private:
  TraceLog() = default;

  struct Event {
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t tid = 0;
  };

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  bool keep_events_ = false;
  std::vector<Event> events_;
  std::vector<SpanTotal> totals_;
};

}  // namespace sens::obs
