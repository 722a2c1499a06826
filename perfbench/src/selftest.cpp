// Self-tests of the benchmark's own logic (`perfbench --self-test`): the
// percentile rule, the metric naming rule, seed plumbing, and that the
// churn event trace is complete before the timed loop starts.
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

class Checker {
 public:
  void operator()(bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures_ += ok ? 0 : 1;
  }
  [[nodiscard]] int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

void percentile_rule(Checker& check) {
  check(tail_percentile(1000, 0.99) == 0.99, "1000 samples: p99 leaves exactly ten beyond it");
  check(tail_percentile(999, 0.99) == 0.95, "999 samples: p99 leaves nine, so p95");
  check(tail_percentile(100, 0.9) == 0.9, "100 samples: p90");
  check(tail_percentile(99, 0.9) == 0.75, "99 samples: p75");
  check(tail_percentile(20, 0.9) == 0.5, "20 samples: p50");
  check(tail_percentile(19, 0.9) == 1.0, "19 samples: no percentile qualifies, the maximum");
  check(tail_percentile(1'000'000, 0.99) == 0.99, "capped at the target percentile");
  check(tail_percentile(10'000, 0.999) == 0.999, "10^4 samples: p99.9");
  check(quantile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.5) == 3.0, "quantile: median of five");
  check(quantile({1.0, 2.0}, 0.5) == 1.5, "quantile: interpolates between ranks");
  check(quantile({}, 0.5) == 0.0, "quantile: empty sample reads 0");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(static_cast<double>(i));
  const Latency l = summarize(ramp, 0.99);
  check(l.count == 1000 && l.tail_p == 0.99 && l.median == 500.5,
        "summarize: sample count, chosen percentile and median");
  std::vector<double> stalled(3000, 1.0);
  for (std::size_t i = 0; i < 50; ++i) stalled[i] = 100.0;  // a stall inside the first window
  const Latency w = summarize_windowed(stalled, 0.99, 1000);
  check(w.windows == 3 && w.tail_p == 0.99 && w.tail == 1.0,
        "windowed tail: a stall in one window of three leaves the median window p99");
  check(summarize(stalled, 0.99).tail == 100.0, "unwindowed tail: the same stall sets the p99");
  check(summarize_windowed(ramp, 0.99, 2000).windows == 0 &&
            summarize_windowed(ramp, 0.99, 2000).tail == l.tail,
        "windowed tail: fewer samples than one window is the plain summary");
  check(windowed_rate({10.0, 10.0, 10.0, 10.0, 10.0, 10.0}, {1.0, 1.0, 9.0, 1.0, 1.0, 1.0}, 2) ==
            10.0,
        "windowed rate: the median window rate ignores one slow window");
  check(windowed_rate({4.0, 6.0}, {1.0, 1.0}, 4) == 5.0,
        "windowed rate: fewer entries than one window is the overall rate");
  check(percentile_label(0.99) == "p99" && percentile_label(0.999) == "p99.9" &&
            percentile_label(1.0) == "max",
        "percentile labels");
}

void metric_names(Checker& check) {
  std::set<std::string> seen;
  bool all_valid = true;
  bool unique = true;
  auto visit = [&](const MetricSpec& m) {
    // Units may also hold '/' and '%' (as in 1/s); map those to a name
    // character before applying the same rule.
    std::string unit(m.unit);
    for (char& c : unit) c = (c == '/' || c == '%') ? '_' : c;
    all_valid = all_valid && valid_metric_name(std::string(m.name)) && m.name.size() <= 64 &&
                valid_metric_name(unit) && unit.size() <= 16;
    unique = seen.insert(std::string(m.name)).second && unique;
  };
  for (const MetricSpec& m : kEndToEnd) visit(m);
  for (const MetricSpec& m : kPerLayer) visit(m);
  check(all_valid, "every catalogued metric name matches [A-Za-z0-9_.-]+ and has a valid unit");
  check(unique, "every catalogued metric name is used once");
  check(valid_metric_name("serve.p99_us-2") && !valid_metric_name("") &&
            !valid_metric_name("a b") && !valid_metric_name("a/b") &&
            !valid_metric_name("p\xc3\xa9"),
        "the naming rule accepts [A-Za-z0-9_.-]+ and rejects anything else");
}

void seed_plumbing(Checker& check) {
  using DigestFn = std::uint64_t (*)(std::uint64_t);
  const std::vector<std::pair<const char*, DigestFn>> inputs{
      {"build_1m", build_1m_input_digest},
      {"serve_hot", serve_hot_input_digest},
      {"churn_20k", churn_20k_input_digest},
  };
  for (const auto& [name, fn] : inputs) {
    const std::uint64_t a = fn(11);
    check(a == fn(11), std::string(name) + ": the same seed gives identical input digests");
    check(a != fn(12), std::string(name) + ": a different seed gives a different digest");
  }
}

void churn_trace_ahead(Checker& check) {
  const ChurnProbe p = probe_churn(5, 2000, 0.3);
  check(p.trace_ready_ns <= p.timing_start_ns,
        "churn: the event trace is generated before the timed loop starts");
  check(p.trace_digest_before == p.trace_digest_after,
        "churn: the timed loop leaves the trace untouched");
  check(p.bursts_run > 0 && p.bursts_run <= p.trace_bursts,
        "churn: the loop consumes only pre-generated bursts (" + std::to_string(p.bursts_run) +
            " of " + std::to_string(p.trace_bursts) + ")");
  check(p.failed == 0, "churn: every check passes at a small scale");
}

}  // namespace

int run_self_tests() {
  Checker check;
  percentile_rule(check);
  metric_names(check);
  seed_plumbing(check);
  churn_trace_ahead(check);
  std::cout << (check.failures() == 0 ? "all self-tests passed\n" : "self-tests FAILED\n");
  return check.failures();
}

}  // namespace perfbench
