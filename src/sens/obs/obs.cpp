#include "sens/obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "sens/support/timer.hpp"

namespace sens::obs {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kDijkstraRuns: return "dijkstra_runs";
    case Counter::kDijkstraHeapPops: return "dijkstra_heap_pops";
    case Counter::kDijkstraRelaxedArcs: return "dijkstra_relaxed_arcs";
    case Counter::kBfsRuns: return "bfs_runs";
    case Counter::kBfsVisits: return "bfs_visits";
    case Counter::kGridKnnQueries: return "grid_knn_queries";
    case Counter::kGridKnnCellsScanned: return "grid_knn_cells_scanned";
    case Counter::kGridKnnCandidates: return "grid_knn_candidates";
    case Counter::kOracleCertified: return "oracle_certified";
    case Counter::kOracleFallback: return "oracle_fallback";
    case Counter::kOracleDisconnected: return "oracle_disconnected";
    case Counter::kEpochJournalReplays: return "epoch_journal_replays";
    case Counter::kEpochResyncs: return "epoch_resyncs";
    case Counter::kFaultNodesFailed: return "fault_nodes_failed";
    case Counter::kFaultEdgesLostEndpoint: return "fault_edges_lost_endpoint";
    case Counter::kFaultEdgesLostLink: return "fault_edges_lost_link";
    case Counter::kDynamicNodesScanned: return "dynamic_nodes_scanned";
    case Counter::kNnLinkPointsCounted: return "nn_link_points_counted";
    case Counter::kCount: break;
  }
  return "unknown";
}

CounterRegistry& CounterRegistry::global() {
  static CounterRegistry registry;
  return registry;
}

CounterRegistry::Block& CounterRegistry::block() {
  // One cached block per thread. The registry is a leaky singleton and
  // blocks are never deallocated, so the cache can never dangle — even for
  // pool workers that outlive many reset() cycles.
  thread_local Block* cached = nullptr;
  if (cached == nullptr) {
    auto owned = std::make_unique<Block>();
    cached = owned.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    blocks_.push_back(std::move(owned));
  }
  return *cached;
}

CounterSnapshot CounterRegistry::snapshot() const {
  CounterSnapshot out{};
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& block : blocks_) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      out[i] += block->v[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t CounterRegistry::value(Counter c) const {
  return snapshot()[static_cast<std::size_t>(c)];
}

void CounterRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& block : blocks_) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      block->v[i].store(0, std::memory_order_relaxed);
    }
  }
}

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  ++buckets_[static_cast<std::size_t>(std::bit_width(ns))];
  if (count_ == 0 || ns < min_ns_) min_ns_ = ns;
  if (ns > max_ns_) max_ns_ = ns;
  ++count_;
  sum_ns_ += ns;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ns_ < min_ns_) min_ns_ = other.min_ns_;
  if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double LatencyHistogram::mean_ns() const noexcept {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_ns_) / static_cast<double>(count_);
}

std::uint64_t LatencyHistogram::percentile_ns(double p) const noexcept {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank && buckets_[b] > 0) {
      // Upper edge of bucket b is 2^b - 1 (bucket 0 holds exact zeros).
      const std::uint64_t edge =
          b == 0 ? 0 : (b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1);
      return std::clamp(edge, min_ns_, max_ns_);
    }
  }
  return max_ns_;
}

namespace {

void trace_sink(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns) {
  TraceLog::global().record(name, begin_ns, end_ns);
}

std::uint32_t this_thread_trace_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

TraceLog& TraceLog::global() {
  static TraceLog log;
  return log;
}

void TraceLog::enable(bool keep_events) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    keep_events_ = keep_events;
  }
  enabled_.store(true, std::memory_order_release);
  set_span_sink(&trace_sink);
}

void TraceLog::disable() {
  set_span_sink(nullptr);
  enabled_.store(false, std::memory_order_release);
}

std::vector<TraceLog::SpanTotal> TraceLog::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

std::size_t TraceLog::event_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceLog::record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns) {
  if (!enabled()) return;
  const std::uint32_t tid = this_thread_trace_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  auto total = std::find_if(totals_.begin(), totals_.end(),
                            [&](const SpanTotal& t) { return t.name == name; });
  if (total == totals_.end()) {
    totals_.push_back(SpanTotal{name, 0, 0});
    total = std::prev(totals_.end());
  }
  total->total_ns += end_ns - begin_ns;
  ++total->count;
  if (keep_events_) events_.push_back(Event{name, begin_ns, end_ns, tid});
}

namespace {

/// Nanoseconds rendered as microseconds with a zero-padded ns fraction
/// ("5007" ns -> "5.007"), the unit Chrome trace timestamps use.
std::string micros_with_ns(std::uint64_t ns) {
  std::string frac = std::to_string(ns % 1000);
  return std::to_string(ns / 1000) + "." + std::string(3 - frac.size(), '0') + frac;
}

}  // namespace

void TraceLog::write_chrome_trace(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t origin_ns = ~std::uint64_t{0};
  for (const Event& e : events_) origin_ns = std::min(origin_ns, e.begin_ns);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i != 0) out << ",";
    // "ph":"X" = complete event (begin + duration).
    out << "\n{\"name\":\"" << e.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.tid
        << ",\"ts\":" << micros_with_ns(e.begin_ns - origin_ns)
        << ",\"dur\":" << micros_with_ns(e.end_ns - e.begin_ns) << "}";
  }
  out << "\n]}\n";
}

void TraceLog::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  totals_.clear();
}

}  // namespace sens::obs
