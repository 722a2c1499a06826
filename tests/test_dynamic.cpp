// Tests for sens/dynamic: incremental HNG maintenance under churn.
//
// The contract under test (DESIGN.md §2.7) is *exact*: after every single
// insert()/remove() event the dynamic structure must agree bit for bit with
// a fresh batch `build_hng` over the surviving point set — levels, top
// level, and the symmetrized overlay edge list. The churn tier
// (`ctest -L churn`, run under ASan in CI) replays seed-sharded randomized
// traces and checks that full-rebuild oracle after EVERY prefix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/hng/hng.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

/// The full-rebuild oracle: batch-build over the survivors with the
/// params and seed `dyn` was made with, and demand bit-for-bit agreement
/// on levels, top level, vertex count, and edges.
::testing::AssertionResult matches_oracle(const DynamicHng& dyn, const HngParams& params,
                                          std::uint64_t seed) {
  const HngResult batch = build_hng(dyn.points(), params, seed);
  if (dyn.overlay().num_vertices() != batch.geo.size()) {
    return ::testing::AssertionFailure()
           << "overlay has " << dyn.overlay().num_vertices() << " vertices, batch "
           << batch.geo.size();
  }
  if (dyn.top_level() != batch.top_level) {
    return ::testing::AssertionFailure()
           << "top level " << dyn.top_level() << " vs batch " << batch.top_level;
  }
  for (std::uint32_t i = 0; i < dyn.size(); ++i) {
    if (dyn.level(i) != batch.level[i]) {
      return ::testing::AssertionFailure()
             << "level of slot " << i << ": " << dyn.level(i) << " vs batch " << batch.level[i];
    }
  }
  if (dyn.overlay().edge_list() != batch.geo.graph.edge_list()) {
    return ::testing::AssertionFailure()
           << "edge lists diverge (" << dyn.overlay().num_edges() << " vs "
           << batch.geo.graph.num_edges() << " edges)";
  }
  return ::testing::AssertionSuccess();
}

/// One churn event; replayable so the thread-invariance test can run the
/// identical trace at several thread counts.
struct Event {
  bool join;
  Vec2 p;              ///< join only
  std::uint32_t slot;  ///< leave only
};

/// Deterministic mixed trace: joins (a fraction of them byte-duplicate
/// coordinates of a live node) and leaves of uniformly random slots. The
/// generator mirrors the swap-remove slot semantics so duplicate picks and
/// leave slots are always valid.
std::vector<Event> make_trace(std::uint64_t seed, std::size_t events, double p_join) {
  Rng rng = Rng::stream(seed, 0xC4421, 0);
  std::vector<Event> trace;
  trace.reserve(events);
  std::vector<Vec2> model;
  for (std::size_t e = 0; e < events; ++e) {
    if (model.empty() || rng.bernoulli(p_join)) {
      Vec2 p{rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)};
      if (!model.empty() && rng.bernoulli(0.1)) {
        p = model[rng.uniform_index(model.size())];  // duplicate point
      }
      trace.push_back({.join = true, .p = p, .slot = 0});
      model.push_back(p);
    } else {
      const auto slot = static_cast<std::uint32_t>(rng.uniform_index(model.size()));
      trace.push_back({.join = false, .p = {}, .slot = slot});
      model[slot] = model.back();
      model.pop_back();
    }
  }
  return trace;
}

void apply(DynamicHng& dyn, const Event& e) {
  if (e.join) {
    dyn.insert(e.p);
  } else {
    dyn.remove(e.slot);
  }
}

/// Replay `trace` (leave slots taken modulo the live size; a leave on an
/// empty structure is skipped) with the full-rebuild oracle after EVERY
/// event.
::testing::AssertionResult replay_with_oracle(DynamicHng& dyn, const HngParams& params,
                                              std::uint64_t seed, const std::vector<Event>& trace) {
  for (std::size_t e = 0; e < trace.size(); ++e) {
    Event ev = trace[e];
    if (!ev.join) {
      if (dyn.size() == 0) continue;
      ev.slot %= static_cast<std::uint32_t>(dyn.size());
    }
    apply(dyn, ev);
    if (::testing::AssertionResult ok = matches_oracle(dyn, params, seed); !ok) {
      return ok << " (after event " << e << ", n=" << dyn.size() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DynamicHng, RejectsInvalidParams) {
  EXPECT_THROW(DynamicHng({.promote_p = 0.0}, 1), std::invalid_argument);
  EXPECT_THROW(DynamicHng({.promote_p = 1.0}, 1), std::invalid_argument);
  EXPECT_THROW(DynamicHng({.promote_p = 0.5, .k = 0}, 1), std::invalid_argument);
  EXPECT_THROW(DynamicHng({.promote_p = 0.5, .k = 1, .max_level = 1}, 1), std::invalid_argument);
}

TEST(DynamicHng, EmptySingletonAndBackToEmpty) {
  const HngParams params{};
  const std::uint64_t seed = 7;
  DynamicHng dyn(params, seed);
  EXPECT_EQ(dyn.size(), 0u);
  EXPECT_TRUE(matches_oracle(dyn, params, seed));

  const std::uint32_t id = dyn.insert({2.0, 3.0});
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(dyn.size(), 1u);
  EXPECT_EQ(dyn.overlay().num_vertices(), 1u);
  EXPECT_EQ(dyn.overlay().num_edges(), 0u);
  EXPECT_EQ(dyn.level(0), dyn.top_level());
  EXPECT_TRUE(matches_oracle(dyn, params, seed));

  dyn.remove(0);
  EXPECT_EQ(dyn.size(), 0u);
  EXPECT_EQ(dyn.overlay().num_vertices(), 0u);
  EXPECT_TRUE(matches_oracle(dyn, params, seed));
}

TEST(DynamicHng, RemoveInvalidSlotThrows) {
  DynamicHng dyn({}, 3);
  EXPECT_THROW(dyn.remove(0), std::out_of_range);
  dyn.insert({1.0, 1.0});
  EXPECT_THROW(dyn.remove(1), std::out_of_range);
}

// The bulk constructor is insert() in a loop, so one oracle check covers
// ~700 consecutive join events; the event stats must account for the last
// joiner itself.
TEST(DynamicHng, BulkAdoptionMatchesBatchBuild) {
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {18.0, 18.0}}, 2.0, 0xD15);
  const HngParams params{.promote_p = 0.25, .k = 3};
  const std::uint64_t seed = 0xD15;
  const DynamicHng dyn(ps.points, params, seed);
  EXPECT_EQ(dyn.size(), ps.size());
  EXPECT_TRUE(matches_oracle(dyn, params, seed));
  EXPECT_GE(dyn.last_event().relinked, 1u);
}

// Byte-identical coordinates are distinct nodes (distinct slots, distinct
// rng streams); ties resolve by the (distance, index) order everywhere.
TEST(DynamicHng, DuplicatePointsAreDistinctNodes) {
  const HngParams params{.promote_p = 0.4, .k = 2};
  const std::uint64_t seed = 0xD0B;
  DynamicHng dyn(params, seed);
  for (int rep = 0; rep < 24; ++rep) {
    dyn.insert({1.0, 1.0});
    ASSERT_TRUE(matches_oracle(dyn, params, seed)) << "after duplicate insert " << rep;
  }
  dyn.insert({4.0, 1.0});
  dyn.insert({1.0, 5.0});
  ASSERT_TRUE(matches_oracle(dyn, params, seed));
  while (dyn.size() > 20) {
    dyn.remove(0);
    ASSERT_TRUE(matches_oracle(dyn, params, seed))
        << "after removing a duplicate, n=" << dyn.size();
  }
}

// Drain to empty one swap-remove at a time, then repopulate: every slot is
// vacated and revived at least once, and the empty structure must accept a
// fresh life.
TEST(DynamicHng, RemoveUntilEmptyThenReinsert) {
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {6.0, 6.0}}, 2.0, 0xE4A5E);
  ASSERT_GT(ps.size(), 30u);
  const HngParams params{.promote_p = 0.3, .k = 2};
  const std::uint64_t seed = 0xE4A5E;
  DynamicHng dyn(ps.points, params, seed);
  Rng rng = Rng::stream(0xE4A5E, 0xDE1, 0);
  while (dyn.size() > 0) {
    dyn.remove(static_cast<std::uint32_t>(rng.uniform_index(dyn.size())));
    ASSERT_TRUE(matches_oracle(dyn, params, seed)) << "draining, n=" << dyn.size();
  }
  for (const Vec2 p : ps.points) {
    const std::uint32_t id = dyn.insert(p);
    ASSERT_TRUE(matches_oracle(dyn, params, seed)) << "re-inserting slot " << id;
  }
  EXPECT_EQ(dyn.size(), ps.size());
}

// Non-finite coordinates would reach the grid cell casts of the k-NN
// pyramid and the reverse index: rejected before any state changes, in
// either coordinate, and the structure keeps working afterwards.
TEST(DynamicHng, NonFiniteInsertThrowsAndLeavesStateIntact) {
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {6.0, 6.0}}, 2.0, 0xBAD);
  const HngParams params{.promote_p = 0.3, .k = 3};
  const std::uint64_t seed = 0xBAD;
  DynamicHng dyn(ps.points, params, seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  double x = 0.25;
  for (const double bad : {nan, inf, -inf}) {
    for (const Vec2 p : {Vec2{bad, 1.0}, Vec2{1.0, bad}, Vec2{bad, bad}}) {
      const std::size_t n = dyn.size();
      const std::uint64_t generation = dyn.overlay_generation();
      const DynamicHngStats last = dyn.last_event();
      EXPECT_THROW(dyn.insert(p), std::invalid_argument);
      EXPECT_EQ(dyn.size(), n);
      EXPECT_EQ(dyn.overlay_generation(), generation);
      EXPECT_EQ(dyn.last_event().relinked, last.relinked);
      EXPECT_EQ(dyn.last_event().edges_added, last.edges_added);
      ASSERT_TRUE(matches_oracle(dyn, params, seed))
          << "after rejecting (" << p.x << ", " << p.y << ")";
      dyn.insert({x, 5.0 - x});
      x += 0.5;
      ASSERT_TRUE(matches_oracle(dyn, params, seed)) << "insert after a rejected point";
    }
  }
  std::vector<Vec2> poisoned = ps.points;
  poisoned[poisoned.size() / 2].y = nan;
  EXPECT_THROW(DynamicHng(poisoned, params, seed), std::invalid_argument);
}

// --- adversarial traces for the reverse k-NN join repair ---------------
//
// A joiner of level L >= 2 repairs exactly the linkers whose selection it
// enters; they are found through reach buckets and per-level cohorts, not
// by scanning slots. Each trace below aims at one way that lookup could
// miss or double-count a linker, with the full-rebuild oracle at every
// prefix.

// Lattice coordinates and duplicates: equal distances everywhere, so
// admission is decided by the (d2, id) tie-break — including a joiner at
// exactly a linker's worst distance whose lower id (a swap-remove rename)
// displaces the worst pick.
TEST(DynamicHng, AdversarialLatticeTiesMatchOracle) {
  Rng rng = Rng::stream(0x1A7, 0, 0);
  std::vector<Event> trace;
  for (int e = 0; e < 900; ++e) {
    if (e < 150 || rng.bernoulli(0.5)) {
      const double step = rng.bernoulli(0.7) ? 1.0 : 0.5;
      trace.push_back({.join = true,
                       .p = {step * static_cast<double>(rng.uniform_index(8)),
                             step * static_cast<double>(rng.uniform_index(8))},
                       .slot = 0});
    } else {
      trace.push_back({.join = false, .p = {}, .slot = static_cast<std::uint32_t>(rng.next_u64())});
    }
  }
  const HngParams params{.promote_p = 0.3, .k = 3};
  const std::uint64_t seed = 0x1A7;
  DynamicHng dyn(params, seed);
  EXPECT_TRUE(replay_with_oracle(dyn, params, seed, trace));
}

// Joiners far outside the current bounding box (up to 1e9 away) and
// tight clusters (offsets down to 1e-12): reach classes far apart from the
// bulk, buckets far from every other bucket.
TEST(DynamicHng, AdversarialFarJoinersAndTightClustersMatchOracle) {
  const PointSet warm = poisson_point_set(Box{{0.0, 0.0}, {4.0, 4.0}}, 3.0, 0xFA4);
  const HngParams params{.promote_p = 0.3, .k = 3};
  const std::uint64_t seed = 0xFA4;
  DynamicHng dyn(warm.points, params, seed);
  ASSERT_TRUE(matches_oracle(dyn, params, seed));
  Rng rng = Rng::stream(0xFA4, 0, 0);
  std::vector<Event> trace;
  for (int e = 0; e < 700; ++e) {
    if (!rng.bernoulli(0.6)) {
      trace.push_back({.join = false, .p = {}, .slot = static_cast<std::uint32_t>(rng.next_u64())});
      continue;
    }
    Vec2 p{rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
    const double kind = rng.uniform();
    if (kind < 0.25) {
      const double far = std::pow(10.0, rng.uniform(3.0, 9.0));
      p = {far * rng.uniform(-1.0, 1.0), far * rng.uniform(-1.0, 1.0)};
    } else if (kind < 0.6) {
      const double spread = rng.bernoulli(0.5) ? 1e-12 : 1e-6;
      p = {2.0 + spread * rng.uniform(), 2.0 + spread * rng.uniform()};
    }
    trace.push_back({.join = true, .p = p, .slot = 0});
  }
  EXPECT_TRUE(replay_with_oracle(dyn, params, seed, trace));
}

// Two clusters at diagonally opposite corners near +-1e155: distances
// between them square to +inf, so a linker picking across drops into the
// overflow reach class that every lookup at its level visits. (Diagonal
// corners keep every level's grid box square, so the k-NN pyramid's own
// cell arithmetic stays finite.)
TEST(DynamicHng, AdversarialOverflowingDistancesMatchOracle) {
  Rng rng = Rng::stream(0x1E155, 0, 0);
  std::vector<Event> trace;
  for (int e = 0; e < 400; ++e) {
    if (e < 40 || rng.bernoulli(0.55)) {
      const double corner = rng.bernoulli(0.8) ? 1e155 : -1e155;
      trace.push_back(
          {.join = true, .p = {corner + rng.uniform(), corner + rng.uniform()}, .slot = 0});
    } else {
      trace.push_back({.join = false, .p = {}, .slot = static_cast<std::uint32_t>(rng.next_u64())});
    }
  }
  const HngParams params{.promote_p = 0.3, .k = 3};
  const std::uint64_t seed = 0x1E155;
  DynamicHng dyn(params, seed);
  EXPECT_TRUE(replay_with_oracle(dyn, params, seed, trace));
}

// promote_p = 0.75 on a few hundred nodes, grown and drained four
// times: the top level rises and drops constantly, and the seed makes
// slots 0-2 level-1 nodes, so every drain passes through the top < 2
// everyone-clique.
TEST(DynamicHng, AdversarialTopTransitionsMatchOracle) {
  const HngParams params{.promote_p = 0.75, .k = 3};
  std::uint64_t seed = 0x75;
  while (hng_promotion_level(seed, 0, params) != 1 || hng_promotion_level(seed, 1, params) != 1 ||
         hng_promotion_level(seed, 2, params) != 1) {
    ++seed;
  }
  DynamicHng dyn(params, seed);
  Rng rng = Rng::stream(seed, 0x7C, 0);
  std::size_t rises = 0;
  std::size_t drops = 0;
  std::size_t everyone_cliques = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (const bool grow : {true, false}) {
      while (grow ? dyn.size() < 220 : dyn.size() > 0) {
        const std::uint32_t top = dyn.top_level();
        if (dyn.size() == 0 || rng.bernoulli(grow ? 0.8 : 0.2)) {
          dyn.insert({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
        } else {
          dyn.remove(static_cast<std::uint32_t>(rng.uniform_index(dyn.size())));
        }
        if (dyn.top_level() > top) ++rises;
        if (dyn.top_level() < top && dyn.size() > 0) ++drops;
        if (dyn.top_level() == 1 && dyn.size() >= 2) ++everyone_cliques;
        ASSERT_TRUE(matches_oracle(dyn, params, seed))
            << "cycle " << cycle << ", n=" << dyn.size();
      }
    }
  }
  EXPECT_GE(rises, 10u);
  EXPECT_GE(drops, 10u);
  EXPECT_GE(everyone_cliques, 8u);
}

// k larger than the upper-level populations: whole levels are
// under-full (every selection there is all of S_{l+1}), so a joiner is
// admitted through the cohort list rather than the reach buckets.
TEST(DynamicHng, AdversarialUnderFullLevelsMatchOracle) {
  for (const std::size_t k : {std::size_t{6}, std::size_t{40}}) {
    const PointSet warm = poisson_point_set(Box{{0.0, 0.0}, {6.0, 6.0}}, 2.0, 0xD0 + k);
    const HngParams params{.promote_p = 0.25, .k = k};
    const std::uint64_t seed = 0xD0 + k;
    DynamicHng dyn(warm.points, params, seed);
    ASSERT_TRUE(matches_oracle(dyn, params, seed));
    std::size_t under_full = 0;
    const std::vector<Event> trace = make_trace(seed, 400, 0.5);
    for (std::size_t e = 0; e < trace.size(); ++e) {
      Event ev = trace[e];
      if (!ev.join) ev.slot %= static_cast<std::uint32_t>(dyn.size());
      apply(dyn, ev);
      ASSERT_TRUE(matches_oracle(dyn, params, seed)) << "k=" << k << ", event " << e;
      // A node of level l selects min(k, |S_{l+1}|) nodes, S_{l+1} being
      // the nodes of a level above l.
      std::vector<std::size_t> above(dyn.top_level() + 1, 0);  // |S_{l+1}| per l
      for (std::uint32_t v = 0; v < dyn.size(); ++v) {
        for (std::uint32_t l = 0; l < dyn.level(v); ++l) ++above[l];
      }
      for (std::uint32_t w = 0; w < dyn.size(); ++w) {
        if (dyn.level(w) >= 2 && dyn.level(w) < dyn.top_level() && above[dyn.level(w)] < k) {
          ++under_full;
          break;
        }
      }
    }
    EXPECT_GT(under_full, 0u) << "k=" << k;
  }
}

// The headline property suite: seed-sharded randomized traces, the
// full-rebuild oracle asserted after EVERY event prefix.
class ChurnTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnTraceTest, OracleHoldsAtEveryPrefix) {
  const std::uint64_t seed = GetParam();
  // Warm start so leaves bite immediately; slight join bias so the
  // structure grows through multi-level territory over the trace.
  const PointSet warm = poisson_point_set(Box{{0.0, 0.0}, {8.0, 8.0}}, 1.5, seed);
  const HngParams params{.promote_p = 0.25, .k = 3};
  DynamicHng dyn(warm.points, params, seed);
  ASSERT_TRUE(matches_oracle(dyn, params, seed));
  const std::vector<Event> trace = make_trace(seed, 500, 0.55);
  for (std::size_t e = 0; e < trace.size(); ++e) {
    // Leave slots were generated against the warm-start-free model; shift
    // into the live range (the model tracks sizes without the warm start).
    Event ev = trace[e];
    if (!ev.join) ev.slot = ev.slot % static_cast<std::uint32_t>(dyn.size());
    apply(dyn, ev);
    ASSERT_TRUE(matches_oracle(dyn, params, seed)) << "trace seed " << seed << ", event " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTraceTest,
                         ::testing::Values(0xC401u, 0xC402u, 0xC403u, 0xC404u));

// §2.7 extends the determinism contract to mutations: maintenance is
// serial by design, so replaying one trace at any --threads value must
// produce bit-identical levels and overlays (and still match the oracle,
// which itself runs chunk-parallel at the ambient thread count).
TEST(DynamicThreads, TraceReplayBitIdenticalAcrossThreadCounts) {
  const HngParams params{.promote_p = 0.25, .k = 3};
  const std::uint64_t seed = 0x7A4EAD;
  const std::vector<Event> trace = make_trace(seed, 240, 0.6);
  const auto replay = [&] {
    DynamicHng dyn(params, seed);
    for (const Event& e : trace) {
      Event ev = e;
      if (!ev.join) ev.slot = ev.slot % static_cast<std::uint32_t>(dyn.size());
      apply(dyn, ev);
    }
    return dyn;
  };
  set_thread_count(1);
  const DynamicHng serial = replay();
  EXPECT_TRUE(matches_oracle(serial, params, seed));
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    const DynamicHng parallel = replay();
    EXPECT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(parallel.overlay().edge_list(), serial.overlay().edge_list());
    for (std::uint32_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel.level(i), serial.level(i)) << "slot " << i << " at " << threads;
    }
    EXPECT_TRUE(matches_oracle(parallel, params, seed));
  }
  set_thread_count(0);
}

}  // namespace
}  // namespace sens
