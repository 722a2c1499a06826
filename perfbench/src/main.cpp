// perfbench: the repository benchmark binary (README.md in this directory).
//
//   perfbench --workload build_1m|serve_hot|churn_20k --seed N --seconds S
//             --trace 0|1 [--trace-file PATH] [--commit ID]
//   perfbench --self-test
//   perfbench --list-metrics
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// for --trace 0, the per-layer metrics for --trace 1. Exits 1 when any
// checked answer was wrong, 2 on a usage error, 3 when the run threw.
#include <charconv>
#include <cmath>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/personality.h>
#include <unistd.h>

#include "common.hpp"
#include "sens/support/cli.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/table.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void finish_trace(const Tracer& tracer, const RunConfig& cfg, RunResult& res) {
  const std::vector<Tracer::LayerTime> layers = tracer.layer_times();
  double traced_s = 0.0;
  for (const Tracer::LayerTime& lt : layers) traced_s += lt.self_seconds;
  sens::Table t({"layer", "spans", "self s", "share"});
  for (const Tracer::LayerTime& lt : layers) {
    t.add_row({lt.layer, sens::Table::fmt_int(static_cast<long long>(lt.spans)),
               sens::Table::fmt(lt.self_seconds, 5),
               sens::Table::fmt(100.0 * ratio(lt.self_seconds, traced_s), 3) + "%"});
    res.layers.push_back({lt.layer + ".self_s", "s", lt.self_seconds, lt.spans});
  }
  std::cout << "\n**self time per layer (span time minus child spans; bench = the "
               "benchmark's own loop and checks)**\n\n";
  t.print(std::cout);
  res.layers.push_back(
      {"trace.spans", "count", static_cast<double>(tracer.records().size()), 1});
  if (cfg.trace_file.empty()) return;
  if (!tracer.write_chrome_trace(cfg.trace_file)) {
    throw std::runtime_error("could not write the trace file " + cfg.trace_file);
  }
  res.notes.push_back("wrote " + std::to_string(tracer.records().size()) + " spans to " +
                      cfg.trace_file);
}

namespace {

std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

const Metric* find(const std::vector<Metric>& ms, std::string_view name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  sens::Table t({"metric", "value", "unit", "samples"});
  for (const Metric& m : ms) {
    t.add_row({m.name, sens::Table::fmt(m.value, 6), m.unit,
               sens::Table::fmt_int(static_cast<long long>(m.samples))});
  }
  std::cout << "\n**" << title << "**\n\n";
  t.print(std::cout);
}

template <std::size_t N>
bool listed(const std::array<MetricSpec, N>& catalogue, const Metric& m) {
  for (const MetricSpec& spec : catalogue) {
    if (spec.name == m.name && spec.unit == m.unit) return true;
  }
  return false;
}

/// `ms` in catalogue order. A catalogued metric the workload did not report
/// reads 0 when `fill` is set, and is an error otherwise.
template <std::size_t N>
bool in_catalogue_order(const std::array<MetricSpec, N>& catalogue, std::vector<Metric>& ms,
                        bool fill) {
  bool ok = true;
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : catalogue) {
    if (const Metric* m = find(ms, spec.name)) {
      ordered.push_back(*m);
    } else if (fill) {
      ordered.push_back({std::string(spec.name), std::string(spec.unit), 0.0, 0});
    } else {
      std::cerr << "error: the workload did not report " << spec.name << "\n";
      ok = false;
    }
  }
  ms = std::move(ordered);
  return ok;
}

bool unknown_metric(const Metric& m) {
  std::cerr << "error: metric " << m.name << " [" << m.unit << "] is not in the catalogue\n";
  return false;
}

int run(const sens::Cli& cli) {
  const std::string workload = cli.get("workload", std::string{});
  RunConfig cfg;
  cfg.seed = cli.get("seed", 1ULL);
  cfg.seconds = cli.get("seconds", 10.0);
  cfg.trace = cli.get("trace", 0L) != 0;
  cfg.trace_file = cli.get("trace-file", std::string{});
  if (!(cfg.seconds > 0.0)) {
    std::cerr << "error: --seconds must be positive\n";
    return 2;
  }
  RunResult (*runner)(const RunConfig&) = nullptr;
  if (workload == "build_1m") runner = run_build_1m;
  if (workload == "serve_hot") runner = run_serve_hot;
  if (workload == "churn_20k") runner = run_churn_20k;
  if (runner == nullptr) {
    std::cerr << "error: --workload must be build_1m, serve_hot or churn_20k\n";
    return 2;
  }

  std::cout << "# perfbench workload=" << workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << (cfg.trace ? 1 : 0) << "\n";
  std::cout << "# nproc=" << std::thread::hardware_concurrency()
            << " pool_threads=" << sens::thread_count() << " build=" << PERFBENCH_BUILD_TYPE
            << " commit=" << cli.get("commit", std::string("unknown")) << "\n";

  RunResult res = runner(cfg);
  const double error_rate =
      ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted));
  std::cout << "# input digest " << hex64(res.input_digest) << "\n";

  bool ok = true;
  std::vector<Metric>* reported = nullptr;
  if (cfg.trace) {
    std::vector<Metric> timings;
    std::vector<Metric> layers;
    for (const Metric& m : res.layers) {
      if (listed(kLayerTimings, m)) {
        timings.push_back(m);
      } else if (listed(kPerLayer, m)) {
        layers.push_back(m);
      } else {
        ok = unknown_metric(m);
      }
    }
    ok = in_catalogue_order(kPerLayer, layers, /*fill=*/true) && ok;
    res.layers = std::move(layers);
    reported = &res.layers;
    print_table("per-layer timings of the calls this workload makes (report only)", timings);
    print_table("per-layer metrics (result line; a count of a layer this workload does not "
                "call reads 0)",
                res.layers);
  } else {
    const Metric rss{"peak_rss_mib", "MiB", peak_rss_mib(), 1};
    res.end_to_end.push_back(rss);
    for (const Metric& m : res.end_to_end) {
      if (!listed(kEndToEnd, m)) ok = unknown_metric(m);
    }
    ok = in_catalogue_order(kEndToEnd, res.end_to_end, /*fill=*/false) && ok;
    reported = &res.end_to_end;
    std::vector<Metric> named{rss};
    if (const Metric* setup = find(res.end_to_end, "setup_s")) {
      named.insert(named.begin(), *setup);
    }
    named.insert(named.end(), res.named.begin(), res.named.end());
    named.push_back({"error_rate", "ratio", error_rate, res.attempted});
    print_table(workload + " end-to-end metrics (tracing off, after warm-up)", named);
    print_table("cross-workload end-to-end metrics (BENCHMARK.json)", res.end_to_end);
  }
  for (const Metric& m : *reported) {
    if (!std::isfinite(m.value)) {
      std::cerr << "error: metric " << m.name << " is not finite\n";
      ok = false;
    }
  }
  std::cout << "\n";
  for (const std::string& note : res.notes) std::cout << "# note: " << note << "\n";
  std::cout << "# checks: attempted=" << res.attempted << " failed=" << res.failed
            << " verified_exact=" << res.verified << " error_rate=" << json_number(error_rate)
            << "\n";
  if (!ok) return 3;

  const bool correct = res.failed == 0 && res.attempted > 0;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < reported->size(); ++i) {
    const Metric& m = (*reported)[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Re-execute once with address-space randomization off. Where the stack
  // and heap land decides which hot fields share a cache line: on a 4-vCPU
  // VM, serve_hot's median batch latency ranged over 30% between processes
  // with randomization and over ~8% without it.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1) {
    execv("/proc/self/exe", argv);  // returns only on failure: run as is
  }
  const sens::Cli cli(argc, argv);
  try {
    if (cli.has("self-test")) return perfbench::run_self_tests() == 0 ? 0 : 1;
    if (cli.has("list-metrics")) {
      for (const perfbench::MetricSpec& m : perfbench::kEndToEnd) {
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
      }
      for (const perfbench::MetricSpec& m : perfbench::kPerLayer) {
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
      }
      return 0;
    }
    return perfbench::run(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
}
