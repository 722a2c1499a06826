// Shared plumbing for the experiment binaries: every bench prints a header
// naming the experiment and the paper claim it regenerates, then one or more
// markdown tables (the rows EXPERIMENTS.md records). Flags:
//   --full         multiply replicate counts by 10
//   --scale N      set the replicate multiplier directly
//   --seed S       reseed the whole experiment
//   --threads N    worker count for the parallel layer (0 = hardware)
//   --csv          additionally dump tables as CSV for plotting
//   --json [FILE]  emit the whole run as one JSON document (to FILE, or to
//                  stdout after the markdown when no FILE is given) so CI can
//                  diff experiment results across PRs
//   --trace FILE   export ScopedSpan phase timings as a Chrome-trace /
//                  Perfetto JSON timeline (load in chrome://tracing or
//                  ui.perfetto.dev)
// A bench may name flags of its own (BenchEnv::parse's `own`, read through
// `env.cli`); any other `--name` exits 2 before the bench does any work, so
// a typo never silently measures the default configuration.
//
// Every bench footer ends with one uniform `[obs]` block (DESIGN.md §2.10):
// elapsed wall clock, peak RSS, per-phase span totals, pool utilization, and
// run notes — stdout only, never part of the `--json` document. The
// deterministic *work counters* accumulated by the instrumented kernels go
// the other way: footer() emits any nonzero registry totals as a regular
// table, so they land in `--json` and are cmp'd across --threads by CI.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sens/obs/obs.hpp"
#include "sens/support/cli.hpp"
#include "sens/support/mem.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/table.hpp"
#include "sens/support/timer.hpp"

namespace sens::bench {

/// Minimal JSON string escaping (quotes, backslashes, control characters).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

/// Fixed-width lowercase hex of a 64-bit digest, for table cells.
inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct BenchEnv {
  Cli cli;                   ///< every flag, for the bench's own ones
  std::size_t scale = 1;     ///< replicate multiplier (10 with --full)
  std::uint64_t seed = 0x5EB5;
  bool csv = false;
  bool json = false;
  std::string json_path;     ///< empty = stdout
  std::string trace_path;    ///< empty = no Chrome-trace export
  Timer timer;

  static BenchEnv parse(int argc, char** argv,
                        std::initializer_list<std::string_view> own = {}) {
    constexpr std::string_view shared[] = {"full", "scale", "seed",  "threads",
                                           "csv",  "json",  "trace"};
    for (int i = 1; i < argc; ++i) {
      std::string_view name = argv[i];
      if (!name.starts_with("--")) continue;
      name = name.substr(2, name.find('=') - 2);
      const auto known = [name](std::string_view flag) { return flag == name; };
      if (std::ranges::none_of(shared, known) && std::ranges::none_of(own, known)) {
        std::cerr << argv[0] << ": unknown flag --" << name << "\n";
        std::exit(2);
      }
    }
    BenchEnv env{Cli(argc, argv)};
    const Cli& cli = env.cli;
    env.scale = cli.has("full") ? 10 : 1;
    env.scale = static_cast<std::size_t>(cli.get("scale", static_cast<long>(env.scale)));
    env.seed = cli.get("seed", static_cast<unsigned long long>(env.seed));
    env.csv = cli.has("csv");
    env.json = cli.has("json");
    if (env.json) env.json_path = cli.get("json", std::string{});
    if (cli.has("trace")) env.trace_path = cli.get("trace", std::string{});
    const long threads = cli.get("threads", 0L);
    if (threads > 0) set_thread_count(static_cast<unsigned>(threads));
    // Span totals always feed the [obs] footer; individual events are
    // retained only when a --trace export will want the full timeline.
    obs::TraceLog::global().enable(/*keep_events=*/!env.trace_path.empty());
    return env;
  }

  explicit BenchEnv(Cli c) : cli(std::move(c)) {}

  void header(const std::string& id, const std::string& claim) {
    id_ = id;
    claim_ = claim;
    std::cout << "\n### " << id << "\n";
    std::cout << "paper claim: " << claim << "\n";
    std::cout << "(seed=" << seed << ", scale=" << scale << ")\n\n";
  }

  void emit(const std::string& title, const Table& table) {
    std::cout << "**" << title << "**\n\n";
    table.print(std::cout);
    if (csv) std::cout << "\ncsv:\n" << table.csv();
    std::cout << "\n";
    if (json) tables_.emplace_back(title, table);
  }

  /// Queue a one-line run note for the footer — survivor counts of a
  /// failure sweep, sweep caps, anything a human reading the run wants
  /// next to the elapsed/RSS lines. Stdout only: footnotes never enter the
  /// JSON document, which must stay byte-identical across machines and
  /// --threads values (DESIGN.md §2.8).
  void footnote(std::string line) { footnotes_.push_back(std::move(line)); }

  void footer() {
    // Deterministic work counters first: they are a regular table, so they
    // enter the --json document and get byte-compared across --threads by
    // the bench-json CI job (DESIGN.md §2.10). Timing stays out, below.
    if (const Table counters = work_counter_table(); counters.rows() > 0) {
      emit("work counters (deterministic, thread-invariant)", counters);
    }
    // The [obs] block: every machine-dependent observable in one place,
    // stdout only — wall clock, memory, spans, and pool scheduling would
    // all break the CI byte-identity diff (DESIGN.md §2.8, §2.10).
    std::cout << "[obs] elapsed: " << Table::fmt(timer.seconds(), 3) << " s\n";
    if (const std::uint64_t peak = peak_rss_bytes(); peak > 0) {
      std::cout << "[obs] peak rss: "
                << Table::fmt(static_cast<double>(peak) / (1024.0 * 1024.0), 5) << " MiB\n";
    }
    for (const auto& span : obs::TraceLog::global().totals()) {
      std::cout << "[obs] span " << span.name << ": "
                << Table::fmt(static_cast<double>(span.total_ns) / 1e6, 4) << " ms (x"
                << span.count << ")\n";
    }
    const PoolStats pool = pool_stats();
    if (pool.jobs + pool.inline_calls > 0) {
      std::cout << "[obs] pool: " << pool.jobs << " jobs, " << pool.helper_claims
                << " helper claims, " << pool.inline_calls << " inline calls\n";
    }
    for (const std::string& line : footnotes_) std::cout << "[obs] note: " << line << "\n";
    if (!trace_path.empty()) {
      std::ofstream trace(trace_path);
      obs::TraceLog::global().write_chrome_trace(trace);
      trace.flush();
      if (!trace) {
        std::cerr << "error: could not write " << trace_path << "\n";
        std::exit(1);
      }
      std::cout << "[obs] trace: wrote " << trace_path << " ("
                << obs::TraceLog::global().event_count() << " spans)\n";
    }
    if (!json) return;
    const std::string doc = json_document();
    if (json_path.empty()) {
      std::cout << "\njson:\n" << doc << "\n";
    } else {
      std::ofstream out(json_path);
      out << doc << "\n";
      out.flush();
      if (!out) {
        std::cerr << "error: could not write " << json_path << "\n";
        std::exit(1);  // a CI consumer must not diff a stale/missing file
      }
      std::cout << "json: wrote " << json_path << "\n";
    }
  }

 private:
  /// Nonzero obs registry totals as a (counter, value) table. Values are
  /// exact uint64 counts rendered in full — never Table::fmt's rounded
  /// doubles — so the CI byte-diff compares true equality.
  [[nodiscard]] static Table work_counter_table() {
    const obs::CounterSnapshot snap = obs::CounterRegistry::global().snapshot();
    Table t({"counter", "value"});
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
      if (snap[i] == 0) continue;
      t.add_row({obs::counter_name(static_cast<obs::Counter>(i)), std::to_string(snap[i])});
    }
    return t;
  }

  [[nodiscard]] std::string json_document() const {
    std::string doc = "{\"experiment\": \"" + json_escape(id_) + "\",\n";
    doc += " \"claim\": \"" + json_escape(claim_) + "\",\n";
    doc += " \"seed\": " + std::to_string(seed) + ",\n";
    doc += " \"scale\": " + std::to_string(scale) + ",\n";
    doc += " \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const auto& [title, table] = tables_[t];
      doc += t == 0 ? "\n" : ",\n";
      doc += "  {\"title\": \"" + json_escape(title) + "\",\n   \"headers\": [";
      const auto& headers = table.headers();
      for (std::size_t h = 0; h < headers.size(); ++h) {
        doc += h == 0 ? "" : ", ";
        doc += "\"" + json_escape(headers[h]) + "\"";
      }
      doc += "],\n   \"rows\": [";
      for (std::size_t r = 0; r < table.rows(); ++r) {
        doc += r == 0 ? "\n" : ",\n";
        doc += "    [";
        const auto& row = table.row(r);
        for (std::size_t c = 0; c < row.size(); ++c) {
          doc += c == 0 ? "" : ", ";
          doc += "\"" + json_escape(row[c]) + "\"";
        }
        doc += "]";
      }
      doc += "]}";
    }
    // Deliberately no timing field: the document must be byte-identical
    // across runs with the same seed/scale so CI can diff it directly.
    doc += "]}";
    return doc;
  }

  std::string id_;
  std::string claim_;
  std::vector<std::pair<std::string, Table>> tables_;
  std::vector<std::string> footnotes_;
};

}  // namespace sens::bench
