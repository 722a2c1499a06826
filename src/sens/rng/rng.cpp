#include "sens/rng/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace sens {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t index) { return Rng(mix_seed(seed, index)); }

Rng Rng::stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return Rng(mix_seed(mix_seed(seed, a), b));
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return Rng(mix_seed(mix_seed(mix_seed(seed, a), b), c));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n == 0");
  // Lemire-style rejection-free-ish multiply-shift with rejection to remove bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

long Rng::uniform_int(long lo, long hi) {
  if (hi < lo) throw std::invalid_argument("uniform_int: hi < lo");
  return lo + static_cast<long>(uniform_index(static_cast<std::uint64_t>(hi - lo) + 1));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal() {
  // Box-Muller; guard against log(0).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

std::uint64_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("poisson: mean < 0");
  if (mean == 0.0) return 0;
  // Split large means: Poisson(a + b) = Poisson(a) + Poisson(b) independently.
  // Keeps the exact inversion numerically safe (exp(-mean) underflows near 745).
  std::uint64_t total = 0;
  double remaining = mean;
  while (remaining > 60.0) {
    const double half = remaining / 2.0;
    total += poisson(half);
    remaining -= half;
  }
  const double threshold = std::exp(-remaining);
  std::uint64_t k = 0;
  double prod = uniform();
  while (prod > threshold) {
    ++k;
    prod *= uniform();
  }
  return total + k;
}

}  // namespace sens
