// Helpers shared by the workloads.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/timer.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

[[nodiscard]] inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(sens::monotonic_ns() - t0_ns) * 1e-9;
}

/// Digest of a CSR graph's topology (vertex count and every sorted list).
[[nodiscard]] inline std::uint64_t csr_digest(const sens::CsrGraph& g) {
  Digest d;
  d.add(static_cast<std::uint64_t>(g.num_vertices()));
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) d.add(g.neighbors(v));
  return d.value();
}

/// Bytes held by a CSR graph: n + 1 offsets plus, per arc, its target and
/// its reverse-arc index (all 32-bit).
[[nodiscard]] inline double csr_bytes(const sens::CsrGraph& g) {
  return 4.0 * static_cast<double>(g.num_vertices() + 1) +
         8.0 * static_cast<double>(g.num_arcs());
}

/// True when `answer` is a sound answer for a pair at exact distance
/// `exact` under the stretch budget: in [d, stretch * d] (a tolerance of
/// 1e-9 relative covers summation order), or infinite for both.
[[nodiscard]] inline bool within_stretch(double answer, double exact, double stretch) {
  if (exact >= sens::kInfCost) return answer >= sens::kInfCost;
  const double tol = 1e-9 * (1.0 + exact);
  return answer >= exact - tol && answer <= stretch * exact + tol;
}

/// Ratio that reads 0 when the base is empty.
[[nodiscard]] inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Pool usage across the spans named `request` (one per request), and the
/// CPU utilization of the traced window: process CPU time over wall time
/// times the pool size.
inline void append_parallel_metrics(const Tracer& tr, const std::string& request, double cpu_s,
                                    double wall_s, std::vector<Metric>& out) {
  const sens::PoolStats p = tr.pool_delta(request);
  const auto requests = static_cast<double>(tr.count(request));
  const auto jobs = static_cast<double>(p.jobs);
  out.push_back({"parallel.jobs_per_request", "count", ratio(jobs, requests), tr.count(request)});
  out.push_back({"parallel.helper_claims_per_job", "count",
                 ratio(static_cast<double>(p.helper_claims), jobs), p.jobs});
  out.push_back({"parallel.inline_calls", "count",
                 ratio(static_cast<double>(p.inline_calls), requests), tr.count(request)});
  out.push_back({"parallel.cpu_util", "ratio",
                 ratio(cpu_s, wall_s * static_cast<double>(sens::thread_count())), 1});
}

/// Median of the durations of the spans named `name`, scaled (1 = seconds).
[[nodiscard]] inline Metric span_median(const Tracer& tr, const std::string& metric,
                                        const std::string& unit, const std::string& name,
                                        double scale) {
  const std::vector<double> d = tr.durations(name);
  return {metric, unit, median(d) * scale, d.size()};
}

/// The tracing overhead (traced against untraced time of the same work)
/// and the traced time itself.
inline void append_overhead(double traced_s, double untraced_s, std::vector<Metric>& out) {
  out.push_back({"trace.overhead_pct", "%", (ratio(traced_s, untraced_s) - 1.0) * 100.0, 2});
  out.push_back({"trace.window_s", "s", traced_s, 1});
}

}  // namespace perfbench
