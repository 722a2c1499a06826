// Unit tests for sens/support: statistics, tables, CLI, parallel utilities.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sens/support/cli.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/stats.hpp"
#include "sens/support/table.hpp"
#include "sens/support/timer.hpp"

namespace sens {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Proportion, WilsonIntervalBracketsEstimate) {
  const Proportion p{60, 100};
  EXPECT_DOUBLE_EQ(p.estimate(), 0.6);
  EXPECT_LT(p.wilson_low(), 0.6);
  EXPECT_GT(p.wilson_high(), 0.6);
  EXPECT_GT(p.wilson_low(), 0.49);
  EXPECT_LT(p.wilson_high(), 0.70);
}

TEST(Proportion, DegenerateCases) {
  EXPECT_DOUBLE_EQ((Proportion{0, 0}).estimate(), 0.0);
  EXPECT_DOUBLE_EQ((Proportion{0, 10}).wilson_low(), 0.0);
  EXPECT_DOUBLE_EQ((Proportion{10, 10}).wilson_high(), 1.0);
  EXPECT_GT((Proportion{10, 10}).wilson_low(), 0.6);
}

TEST(LineFit, RecoversExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 - 2.0 * v);
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, -2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LineFit, SizeMismatchThrows) {
  std::vector<double> x{1, 2};
  std::vector<double> y{1};
  EXPECT_THROW((void)fit_line(x, y), std::invalid_argument);
}

TEST(LineFit, ExponentialFitRecoversRate) {
  std::vector<double> x, y;
  for (int i = 1; i <= 12; ++i) {
    x.push_back(i);
    y.push_back(5.0 * std::exp(-0.8 * i));
  }
  const LineFit fit = fit_exponential(x, y);
  EXPECT_NEAR(fit.slope, -0.8, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 5.0, 1e-9);
}

TEST(LineFit, ExponentialSkipsNonPositive) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{std::exp(-1.0), 0.0, std::exp(-3.0), std::exp(-4.0)};
  const LineFit fit = fit_exponential(x, y);
  EXPECT_EQ(fit.n, 3u);
  EXPECT_NEAR(fit.slope, -1.0, 1e-9);
}

TEST(Quantile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

TEST(TableTest, MarkdownShape) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string md = t.markdown();
  EXPECT_NE(md.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(md.find("| 333 | 4  |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, CsvAndFormat) {
  Table t({"x", "y"});
  t.add_row({Table::fmt(3.14159, 3), Table::fmt_int(42)});
  EXPECT_EQ(t.csv(), "x,y\n3.14,42\n");
}

TEST(CliTest, ParsesForms) {
  // Note: a bare token after `--flag` would parse as its value (documented
  // greedy form), so the positional argument comes first.
  const char* argv[] = {"prog", "pos1", "--alpha=1.5", "--beta", "7", "--flag"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get("alpha", 0.0), 1.5);
  EXPECT_EQ(cli.get("beta", 0L), 7L);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_FALSE(cli.has("gamma"));
  EXPECT_EQ(cli.get("gamma", std::string("dft")), "dft");
  EXPECT_FALSE(cli.has("pos1"));
}

TEST(ParallelTest, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, ChunksPartitionTheIndexRange) {
  // parallel_for_chunks hands out half-open, non-overlapping chunks that
  // cover [0, n) exactly once, with the deterministic layout reduce uses.
  constexpr std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  set_thread_count(4);
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  set_thread_count(0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, ChunkLayoutMatchesDispatchedChunks) {
  // The public chunk_layout(n) describes exactly the chunks that
  // parallel_for_chunks hands out: index_of(begin) hits every chunk index
  // [0, count) exactly once (the contract per-chunk collectors rely on,
  // DESIGN.md §2.3).
  for (const std::size_t n : {1ul, 7ul, 1024ul, 1025ul, 5000ul}) {
    const ChunkLayout layout = chunk_layout(n);
    std::vector<std::atomic<int>> seen(layout.count);
    std::atomic<std::size_t> calls{0};
    parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
      ASSERT_EQ(end - begin, std::min(layout.size, n - begin));
      seen[layout.index_of(begin)].fetch_add(1);
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), layout.count) << "n=" << n;
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1) << "n=" << n;
  }
  EXPECT_EQ(chunk_layout(0).count, 0u);
}

TEST(ParallelTest, SumBitIdenticalAcrossThreadCounts) {
  // Floating-point addition is not associative, so bit-identical sums prove
  // the reduction really combines per-chunk partials in a thread-count-
  // independent order. EXPECT_EQ on doubles is an exact (bitwise) compare.
  auto task = [](std::size_t i) { return std::sin(static_cast<double>(i)) * 1e-3; };
  set_thread_count(1);
  const double serial = parallel_sum(5000, task);
  for (const unsigned threads : {2u, 3u, 5u, 8u}) {
    set_thread_count(threads);
    EXPECT_EQ(serial, parallel_sum(5000, task)) << "threads=" << threads;
  }
  set_thread_count(0);
  EXPECT_EQ(serial, parallel_sum(5000, task)) << "default thread count";
}

TEST(ParallelTest, ReduceRespectsChunkOrderWithNonCommutativeCombine) {
  // String concatenation is non-commutative: any out-of-order combine of the
  // per-chunk partials would scramble the digits.
  auto digits = [](std::size_t n) {
    std::string serial;
    for (std::size_t i = 0; i < n; ++i) serial += static_cast<char>('0' + i % 10);
    return serial;
  };
  auto map = [](std::size_t i) { return std::string(1, static_cast<char>('0' + i % 10)); };
  auto combine = [](std::string a, std::string b) { return a + b; };
  set_thread_count(4);
  EXPECT_EQ(parallel_reduce(3000, std::string{}, map, combine), digits(3000));
  set_thread_count(0);
}

TEST(ParallelTest, ReduceDegenerateSizes) {
  auto map = [](std::size_t i) { return static_cast<double>(i) + 1.0; };
  auto add = [](double a, double b) { return a + b; };
  EXPECT_DOUBLE_EQ(parallel_reduce(0, 42.0, map, add), 42.0);  // init passes through
  EXPECT_DOUBLE_EQ(parallel_reduce(1, 0.5, map, add), 1.5);
}

TEST(ParallelTest, PropagatesException) {
  EXPECT_THROW(parallel_for(100,
                            [](std::size_t i) {
                              if (i == 31) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelTest, PropagatesExceptionFromWorkerChunks) {
  // Force real pool threads and make every chunk throw: the first exception
  // must drain the cursor and surface in the caller.
  set_thread_count(4);
  EXPECT_THROW(parallel_for(20000,
                            [](std::size_t i) {
                              if (i % 7 == 3) throw std::runtime_error("chunked boom");
                            }),
               std::runtime_error);
  EXPECT_THROW(
      (void)parallel_reduce(
          20000, 0.0,
          [](std::size_t i) {
            if (i == 19999) throw std::logic_error("last index");
            return 0.0;
          },
          [](double a, double b) { return a + b; }),
      std::logic_error);
  set_thread_count(0);
  // The pool must stay usable after an exceptional job.
  EXPECT_DOUBLE_EQ(parallel_sum(10, [](std::size_t) { return 1.0; }), 10.0);
}

TEST(ParallelTest, NestedCallsRunInlineAndStayDeterministic) {
  auto inner_task = [](std::size_t i) { return std::sin(static_cast<double>(i)) * 1e-3; };
  set_thread_count(1);
  const double expected = parallel_sum(2000, inner_task);
  set_thread_count(4);
  std::vector<double> inner(8, 0.0);
  std::atomic<int> visits{0};
  parallel_for(inner.size(), [&](std::size_t i) {
    inner[i] = parallel_sum(2000, inner_task);  // nested: must not deadlock
    visits.fetch_add(1);
  });
  set_thread_count(0);
  EXPECT_EQ(visits.load(), 8);
  for (const double v : inner) EXPECT_EQ(v, expected);  // bitwise, nested == serial
}

TEST(ParallelTest, MapPlacesResults) {
  const auto out = parallel_map<int>(64, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 64u);
  EXPECT_EQ(out[7], 49);
  EXPECT_EQ(out[63], 63 * 63);
}

// --- participant state (parallel_for_chunks<State>, DESIGN.md §2.4): one
// State per participant, built on its first claimed chunk, never shared
// between threads, gone when the call returns.

/// Participant state that tallies its constructions and remembers the
/// thread that built it, so a body can detect a State touched by a second
/// thread.
struct CountedState {
  static inline std::atomic<int> constructed{0};
  std::thread::id owner = std::this_thread::get_id();
  CountedState() { constructed.fetch_add(1); }
};

/// Runs parallel_for_chunks<CountedState> over [0, n); returns the number of
/// chunk bodies that saw a State built on another thread, and counts every
/// index's visits into `hits`.
int run_counted(std::size_t n, std::vector<std::atomic<int>>& hits) {
  std::atomic<int> foreign{0};
  parallel_for_chunks<CountedState>(n, [&](CountedState& state, std::size_t begin,
                                           std::size_t end) {
    if (state.owner != std::this_thread::get_id()) foreign.fetch_add(1);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  return foreign.load();
}

TEST(ParallelState, SerialPathBuildsExactlyOneState) {
  set_thread_count(1);
  CountedState::constructed = 0;
  std::vector<std::atomic<int>> hits(1024);
  EXPECT_EQ(run_counted(hits.size(), hits), 0);
  set_thread_count(0);
  EXPECT_EQ(CountedState::constructed.load(), 1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelState, AtMostOneStatePerParticipantNeverShared) {
  set_thread_count(4);
  for (int round = 0; round < 20; ++round) {
    CountedState::constructed = 0;
    std::vector<std::atomic<int>> hits(1024);  // 1024 one-index chunks
    EXPECT_EQ(run_counted(hits.size(), hits), 0) << "round " << round;
    EXPECT_GE(CountedState::constructed.load(), 1) << "round " << round;
    EXPECT_LE(CountedState::constructed.load(), 4) << "round " << round;
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "round " << round;
  }
  set_thread_count(0);
}

TEST(ParallelState, NoStateForEmptyRange) {
  CountedState::constructed = 0;
  parallel_for_chunks<CountedState>(0, [](CountedState&, std::size_t, std::size_t) {});
  EXPECT_EQ(CountedState::constructed.load(), 0);
}

struct ThrowingState {
  ThrowingState() { throw std::runtime_error("state ctor"); }
};

TEST(ParallelState, ExceptionsFromStateAndBodyReachTheCaller) {
  for (const unsigned threads : {1u, 4u}) {
    set_thread_count(threads);
    std::atomic<int> bodies{0};
    const auto count_body = [&](ThrowingState&, std::size_t, std::size_t) { bodies.fetch_add(1); };
    EXPECT_THROW(parallel_for_chunks<ThrowingState>(5000, count_body), std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(bodies.load(), 0) << "threads=" << threads;
    const auto throwing_body = [](CountedState&, std::size_t begin, std::size_t) {
      if (begin >= 2500) throw std::logic_error("body");
    };
    EXPECT_THROW(parallel_for_chunks<CountedState>(5000, throwing_body), std::logic_error)
        << "threads=" << threads;
    // The pool stays usable after either exceptional job.
    std::vector<std::atomic<int>> hits(3000);
    EXPECT_EQ(run_counted(hits.size(), hits), 0);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "threads=" << threads;
  }
  set_thread_count(0);
}

TEST(ParallelState, NestedStatefulCallRunsInlineWithItsOwnState) {
  struct Outer {
    int id = 0;
  };
  struct Inner {
    int id = 1;
  };
  set_thread_count(4);
  CountedState::constructed = 0;
  std::atomic<int> mismatches{0};
  std::atomic<int> inner_calls{0};
  parallel_for_chunks<Outer>(64, [&](Outer& outer, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::thread::id caller = std::this_thread::get_id();
      std::size_t covered = 0;
      const Inner* first = nullptr;
      parallel_for_chunks<Inner>(2000, [&](Inner& inner, std::size_t b, std::size_t e) {
        // Inline: same thread, one Inner for every chunk, distinct from
        // the outer participant's state.
        if (std::this_thread::get_id() != caller) mismatches.fetch_add(1);
        if (first == nullptr) first = &inner;
        if (first != &inner || inner.id != 1) mismatches.fetch_add(1);
        if (static_cast<const void*>(&inner) == static_cast<const void*>(&outer)) {
          mismatches.fetch_add(1);
        }
        covered += e - b;
      });
      if (covered != 2000 || outer.id != 0) mismatches.fetch_add(1);
      inner_calls.fetch_add(1);
    }
  });
  set_thread_count(0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(inner_calls.load(), 64);
}

TEST(ParallelTest, ThreadCountOverrideRoundTrip) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), default_thread_count());
}

// --- reentrancy contract (DESIGN.md §2.6): top-level parallel calls issued
// concurrently from distinct user threads share the pool without
// serializing, without deadlock, and with bit-identical results. These run
// under -fsanitize=thread in the `concurrency` ctest tier.

TEST(ParallelReentrancy, ConcurrentTopLevelCallsBitIdentical) {
  auto task = [](std::size_t i) { return std::sin(static_cast<double>(i)) * 1e-3; };
  set_thread_count(1);
  const double expected = parallel_sum(5000, task);
  set_thread_count(4);
  constexpr std::size_t kCallers = 6;
  std::vector<double> results(kCallers, 0.0);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&results, &task, c] {
        // Several rounds per caller so job submissions overlap in time.
        for (int round = 0; round < 4; ++round) results[c] = parallel_sum(5000, task);
      });
    }
    for (auto& t : callers) t.join();
  }
  set_thread_count(0);
  for (const double r : results) EXPECT_EQ(r, expected);  // bitwise
}

TEST(ParallelReentrancy, ConcurrentCallersWithNestedCalls) {
  auto inner_task = [](std::size_t i) { return std::sin(static_cast<double>(i)) * 1e-3; };
  set_thread_count(1);
  const double expected = parallel_sum(1500, inner_task);
  set_thread_count(4);
  constexpr std::size_t kCallers = 4;
  std::vector<double> results(kCallers, 0.0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Each caller's job itself issues nested parallel calls: the nested
      // ones must run inline on whichever thread executes the chunk.
      std::vector<double> inner(6, 0.0);
      parallel_for(inner.size(), [&](std::size_t i) { inner[i] = parallel_sum(1500, inner_task); });
      results[c] = inner[0];
      for (const double v : inner) EXPECT_EQ(v, inner[0]);
    });
  }
  for (auto& t : callers) t.join();
  set_thread_count(0);
  for (const double r : results) EXPECT_EQ(r, expected);
}

TEST(ParallelReentrancy, ExceptionInOneCallerLeavesOthersAndPoolIntact) {
  set_thread_count(4);
  std::atomic<int> ok_callers{0};
  std::atomic<int> caught{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      if (c == 0) {
        try {
          parallel_for(20000, [](std::size_t i) {
            if (i % 11 == 5) throw std::runtime_error("caller 0 boom");
          });
        } catch (const std::runtime_error&) {
          caught.fetch_add(1);
        }
      } else {
        const double sum = parallel_sum(20000, [](std::size_t) { return 1.0; });
        if (sum == 20000.0) ok_callers.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  set_thread_count(0);
  EXPECT_EQ(caught.load(), 1);
  EXPECT_EQ(ok_callers.load(), 3);
  // The pool must stay usable after the exceptional job retired.
  EXPECT_DOUBLE_EQ(parallel_sum(10, [](std::size_t) { return 1.0; }), 10.0);
}

TEST(ParallelReentrancy, ManyCallersManyRoundsNoDeadlock) {
  // Saturate the pool: more caller threads than helpers, many short jobs.
  // Every caller participates in its own job, so all must finish even when
  // no helper ever picks their tickets up.
  set_thread_count(3);
  constexpr std::size_t kCallers = 8;
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 16; ++round) {
        std::atomic<std::size_t> hits{0};
        parallel_for(2048, [&](std::size_t) { hits.fetch_add(1, std::memory_order_relaxed); });
        if (hits.load() == 2048) completed.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  set_thread_count(0);
  EXPECT_EQ(completed.load(), kCallers * 16);
}

TEST(ParallelReentrancy, ConcurrentStatefulCallersNeverShareState) {
  // Several callers run stateful jobs at once on a shared pool: each job
  // gets at most 4 participants, so at most 4 States per call, and no
  // State is ever touched by a thread other than the one that built it.
  set_thread_count(4);
  constexpr std::size_t kCallers = 4;
  constexpr int kRounds = 8;
  CountedState::constructed = 0;
  std::atomic<int> foreign{0};
  std::atomic<int> miscovered{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(1024);
        foreign.fetch_add(run_counted(hits.size(), hits));
        for (const auto& h : hits) {
          if (h.load() != 1) miscovered.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  set_thread_count(0);
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(miscovered.load(), 0);
  const int calls = static_cast<int>(kCallers) * kRounds;
  EXPECT_GE(CountedState::constructed.load(), calls);
  EXPECT_LE(CountedState::constructed.load(), 4 * calls);
}

TEST(TimerTest, MeasuresSomething) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 0.0);
}

}  // namespace
}  // namespace sens
