// The three named workloads and the metric catalogue they report into.
//
// Every workload takes its inputs from the seed alone, builds them before
// any timing starts, measures a closed loop with one driving thread (the
// library pool runs at its default of one worker per hardware thread, the
// driving thread joining pool work), and checks every answer it times against a
// reference. End-to-end metrics are measured with tracing off; the traced
// run (`trace = true`) runs a fixed amount of work twice, untraced and then
// traced, and reports per-layer metrics plus the tracing overhead.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured loop
  bool trace = false;
  std::string trace_file;  ///< Chrome-trace output of a traced run ("" = none)
};

struct RunResult {
  std::size_t attempted = 0;  ///< operations whose output was checked
  std::size_t failed = 0;     ///< operations that failed or answered wrong
  std::size_t verified = 0;   ///< answers recomputed against an exact reference
  std::uint64_t input_digest = 0;
  /// The workload's own end-to-end quantities, under their workload names
  /// (serve_p99_us, refresh_p90_ms, ...), with sample counts.
  std::vector<Metric> named;
  /// The cross-workload end-to-end metrics (kEndToEnd), untraced runs only.
  std::vector<Metric> end_to_end;
  /// Per-layer metrics (kPerLayer and kLayerTimings), traced runs only.
  std::vector<Metric> layers;
  std::vector<std::string> notes;
};

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics every workload reports (README.md maps each one to
/// the workload's own quantity).
inline constexpr std::array<MetricSpec, 6> kEndToEnd{{
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"throughput_per_s", "1/s"},
    {"request_p50_ms", "ms"},
    {"request_tail_ms", "ms"},
    {"secondary_p50_ms", "ms"},
}};

/// Per-layer metrics of the traced run that BENCHMARK.json declares. The
/// work counts, structure sizes and ratios read 0 on a workload that does
/// not call the layer; the timings here are ones every workload measures.
inline constexpr std::array<MetricSpec, 38> kPerLayer{{
    {"geograph.poisson_s", "s"},
    {"geograph.udg_edges", "count"},
    {"core.overlay_nodes", "count"},
    {"core.overlay_edges", "count"},
    {"core.edges_missing", "count"},
    {"core.nn_edge_checks", "count"},
    {"core.route_success_ratio", "ratio"},
    {"core.route_node_hops", "hops"},
    {"perc.probes_per_route", "count"},
    {"spatial.knn_candidates_per_event", "count"},
    {"graph.oracle_heap_pops", "count"},
    {"graph.oracle_relaxed_arcs", "count"},
    {"graph.csr_bytes", "B"},
    {"graph.heap_pops_per_fallback", "count"},
    {"graph.refresh_heap_pops", "count"},
    {"serve.oracle_build_s", "s"},
    {"serve.label_bytes", "B"},
    {"serve.certified_ratio", "ratio"},
    {"serve.fallbacks_per_batch", "count"},
    {"serve.refresh_deltas", "count"},
    {"serve.refresh_resyncs", "count"},
    {"serve.landmarks_demoted", "count"},
    {"serve.landmarks_recruited", "count"},
    {"serve.epoch_certified_ratio", "ratio"},
    {"serve.epoch_fallbacks_per_batch", "count"},
    {"dynamic.relinked_per_event", "count"},
    {"dynamic.edge_delta_per_event", "count"},
    {"fault.casualties_per_fault_burst", "count"},
    {"parallel.jobs_per_request", "count"},
    {"parallel.helper_claims_per_job", "count"},
    {"parallel.inline_calls", "count"},
    {"parallel.cpu_util", "ratio"},
    {"bench.self_s", "s"},
    {"geograph.self_s", "s"},
    {"serve.self_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"trace.window_s", "s"},
}};

/// Per-layer timings of calls only some workloads make. They are printed
/// in the traced run's report and written to its trace file, not put in
/// the result line: a timing that reads 0 on every run of a workload that
/// never makes the call would look like a constant, not a measurement.
inline constexpr std::array<MetricSpec, 19> kLayerTimings{{
    {"geograph.build_udg_s", "s"},
    {"tiles.classify_udg_s", "s"},
    {"tiles.classify_nn_s", "s"},
    {"core.udg_overlay_s", "s"},
    {"core.nn_overlay_s", "s"},
    {"spatial.kdtree_build_s", "s"},
    {"spatial.reorder_s", "s"},
    {"graph.arc_weights_s", "s"},
    {"dynamic.adopt_s", "s"},
    {"dynamic.insert_us", "us"},
    {"dynamic.remove_us", "us"},
    {"dynamic.materialize_ms", "ms"},
    {"fault.alive_mask_ms", "ms"},
    {"tiles.self_s", "s"},
    {"core.self_s", "s"},
    {"spatial.self_s", "s"},
    {"graph.self_s", "s"},
    {"dynamic.self_s", "s"},
    {"fault.self_s", "s"},
}};

[[nodiscard]] RunResult run_build_1m(const RunConfig& cfg);
[[nodiscard]] RunResult run_serve_hot(const RunConfig& cfg);
[[nodiscard]] RunResult run_churn_20k(const RunConfig& cfg);

/// Digests of each workload's generated inputs (seed plumbing self-test).
[[nodiscard]] std::uint64_t build_1m_input_digest(std::uint64_t seed);
[[nodiscard]] std::uint64_t serve_hot_input_digest(std::uint64_t seed);
[[nodiscard]] std::uint64_t churn_20k_input_digest(std::uint64_t seed);

/// Churn at a caller-chosen scale, for the self-test that the event trace
/// is complete before the timed loop starts.
struct ChurnProbe {
  std::uint64_t trace_digest_before = 0;
  std::uint64_t trace_digest_after = 0;
  std::size_t trace_bursts = 0;
  std::size_t bursts_run = 0;
  std::uint64_t trace_ready_ns = 0;   ///< when trace generation returned
  std::uint64_t timing_start_ns = 0;  ///< when the first timed burst began
  std::size_t failed = 0;
};
[[nodiscard]] ChurnProbe probe_churn(std::uint64_t seed, std::size_t nodes, double seconds);

/// Self-tests of the benchmark's own logic; returns the number of failures.
[[nodiscard]] int run_self_tests();

/// Close a traced run: print the per-layer self-time table, append the
/// `<layer>.self_s` and `trace.spans` metrics, and write the Chrome-trace
/// timeline to cfg.trace_file when one is set.
void finish_trace(const Tracer& tracer, const RunConfig& cfg, RunResult& res);

}  // namespace perfbench
