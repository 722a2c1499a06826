// Unit and property tests for sens/rng: engines, streams, distributions.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "sens/rng/rng.hpp"
#include "sens/support/stats.hpp"

namespace sens {
namespace {

/// Sample mean and sample variance (n - 1 denominator) of a draw sequence.
struct Moments {
  double n = 0.0;
  double sum = 0.0;
  double sum2 = 0.0;
  void add(double x) {
    n += 1.0;
    sum += x;
    sum2 += x * x;
  }
  [[nodiscard]] double mean() const { return sum / n; }
  [[nodiscard]] double variance() const { return (sum2 - sum * sum / n) / (n - 1.0); }
};

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamsAreIndependentAndStable) {
  Rng s0 = Rng::stream(9, 0);
  Rng s0again = Rng::stream(9, 0);
  Rng s1 = Rng::stream(9, 1);
  EXPECT_EQ(s0.next_u64(), s0again.next_u64());
  EXPECT_NE(Rng::stream(9, 0).next_u64(), s1.next_u64());
  // Multi-index streams are distinct from single-index streams.
  EXPECT_NE(Rng::stream(9, 1, 2).next_u64(), Rng::stream(9, 1).next_u64());
  EXPECT_NE(Rng::stream(9, 1, 2, 3).next_u64(), Rng::stream(9, 1, 2).next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeMeanCorrect) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform(-2.0, 6.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_GE(s.min(), -2.0);
  EXPECT_LT(s.max(), 6.0);
}

TEST(Rng, UniformIndexBoundsAndCoverage) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW((void)rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const long v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW((void)rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Moments s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(s.variance()), 3.0, 0.1);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Rng rng(static_cast<std::uint64_t>(mean * 1000) + 1);
  Moments s;
  const int n = 20000;
  for (int i = 0; i < n; ++i) s.add(static_cast<double>(rng.poisson(mean)));
  // Poisson: mean == variance. Allow ~5 sigma of MC noise.
  const double tol = 5.0 * std::sqrt(mean / n) + 0.01;
  EXPECT_NEAR(s.mean(), mean, tol);
  EXPECT_NEAR(s.variance(), mean, 12.0 * mean / std::sqrt(static_cast<double>(n)) + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMeanTest,
                         ::testing::Values(0.1, 0.5, 1.0, 3.0, 10.0, 40.0, 80.0, 200.0));

TEST(Rng, PoissonEdgeCases) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_THROW((void)rng.poisson(-1.0), std::invalid_argument);
}

TEST(Rng, MixSeedSpreadsBits) {
  // Nearby inputs should hash to very different values.
  const std::uint64_t a = mix_seed(1, 1);
  const std::uint64_t b = mix_seed(1, 2);
  const std::uint64_t c = mix_seed(2, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  int diff = __builtin_popcountll(a ^ b);
  EXPECT_GT(diff, 10);
}

}  // namespace
}  // namespace sens
