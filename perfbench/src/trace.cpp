#include "trace.hpp"

#include <fstream>

#include "sens/support/timer.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

std::size_t Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? kNoParent : stack_.back();
  // Hold the opening snapshots in the delta slots until close().
  r.counters = sens::obs::CounterRegistry::global().snapshot();
  r.pool = sens::pool_stats();
  r.begin_ns = sens::monotonic_ns();
  records_.push_back(r);
  stack_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void Tracer::close(std::size_t index) {
  const std::uint64_t end = sens::monotonic_ns();
  Record& r = records_[index];
  r.end_ns = end;
  const sens::obs::CounterSnapshot now = sens::obs::CounterRegistry::global().snapshot();
  for (std::size_t i = 0; i < now.size(); ++i) r.counters[i] = now[i] - r.counters[i];
  const sens::PoolStats pool = sens::pool_stats();
  r.pool.jobs = pool.jobs - r.pool.jobs;
  r.pool.helper_claims = pool.helper_claims - r.pool.helper_claims;
  r.pool.inline_calls = pool.inline_calls - r.pool.inline_calls;
  if (r.parent != kNoParent) records_[r.parent].child_ns += r.duration_ns();
  stack_.pop_back();
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (name == r.name) ++n;
  }
  return n;
}

double Tracer::total_seconds(const std::string& name) const {
  std::uint64_t ns = 0;
  for (const Record& r : records_) {
    if (name == r.name) ns += r.duration_ns();
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (name == r.name) out.push_back(static_cast<double>(r.duration_ns()) * 1e-9);
  }
  return out;
}

std::uint64_t Tracer::counter_delta(const std::string& name, sens::obs::Counter c) const {
  std::uint64_t total = 0;
  for (const Record& r : records_) {
    if (name == r.name) total += r.counters[static_cast<std::size_t>(c)];
  }
  return total;
}

sens::PoolStats Tracer::pool_delta(const std::string& name) const {
  sens::PoolStats total;
  for (const Record& r : records_) {
    if (name != r.name) continue;
    total.jobs += r.pool.jobs;
    total.helper_claims += r.pool.helper_claims;
    total.inline_calls += r.pool.inline_calls;
  }
  return total;
}

std::vector<Tracer::LayerTime> Tracer::layer_times() const {
  std::vector<LayerTime> out;
  for (const Record& r : records_) {
    const std::string name = r.name;
    const std::string layer = name.substr(0, name.find('.'));
    auto it = out.begin();
    while (it != out.end() && it->layer != layer) ++it;
    if (it == out.end()) it = out.insert(out.end(), LayerTime{layer, 0, 0.0});
    ++it->spans;
    it->self_seconds += static_cast<double>(r.self_ns()) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  sens::obs::TraceLog& log = sens::obs::TraceLog::global();
  log.clear();
  log.enable(/*keep_events=*/true);
  for (const Record& r : records_) log.record(r.name, r.begin_ns, r.end_ns);
  log.disable();
  std::ofstream out(path);
  log.write_chrome_trace(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
