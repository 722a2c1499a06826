// Deterministic random number generation.
//
// The project never uses std::random_device or global engines: every sampler
// is seeded from an explicit (seed, stream...) tuple hashed with SplitMix64,
// so Monte-Carlo experiments are reproducible bit-for-bit across runs and
// across thread counts. The core engine is xoshiro256** (public-domain
// algorithm by Blackman & Vigna), re-implemented here.
#pragma once

#include <array>
#include <cstdint>

namespace sens {

/// SplitMix64 step; also used as a mixing/hash function for stream derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hash-combine used to derive independent child streams from a parent seed.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** engine with distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL);

  /// Independent stream `index` derived from `seed`; streams with different
  /// indices are statistically independent for our purposes.
  static Rng stream(std::uint64_t seed, std::uint64_t index);
  static Rng stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b);
  static Rng stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c);

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  long uniform_int(long lo, long hi);
  /// True with probability p.
  bool bernoulli(double p);
  /// Standard normal via Box-Muller (unbuffered; ~2 uniforms per call).
  double normal();
  double normal(double mean, double stddev);
  /// Poisson-distributed count with the given mean. Exact inversion for
  /// small means, PTRD-style normal-approximation-free splitting for large
  /// means (splits mean in halves until small enough for inversion).
  std::uint64_t poisson(double mean);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace sens
