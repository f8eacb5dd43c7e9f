#include "common/rng.hpp"

#include <cmath>

namespace wormsched {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  WS_CHECK(bound != 0);
  // Lemire's multiply-shift with rejection of the biased low region.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  WS_CHECK(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span == 0 means the full 64-bit range (hi - lo overflowed); avoid the
  // bounded path in that degenerate case.
  const std::uint64_t draw = span == 0 ? next_u64() : uniform_u64(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform_real();
}

double Rng::exponential(double lambda) {
  WS_CHECK(lambda > 0.0);
  // -log(1 - U) with U in [0,1): argument stays in (0,1], no log(0).
  return -std::log(1.0 - uniform_real()) / lambda;
}

std::int64_t Rng::truncated_exponential_int(double lambda, std::int64_t lo,
                                            std::int64_t hi) {
  WS_CHECK(lo <= hi);
  for (;;) {
    const auto k =
        lo + static_cast<std::int64_t>(std::floor(exponential(lambda)));
    if (k <= hi) return k;
  }
}

std::uint64_t Rng::poisson(double mean) {
  WS_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform_real();
    while (product > limit) {
      ++count;
      product *= uniform_real();
    }
    return count;
  }
  // Normal approximation with continuity correction; adequate for the
  // large-mean batch-arrival use in workload generators.
  const double u1 = uniform_real();
  const double u2 = uniform_real();
  const double gauss =
      std::sqrt(-2.0 * std::log(1.0 - u1)) * std::cos(6.283185307179586 * u2);
  const double value = mean + std::sqrt(mean) * gauss + 0.5;
  return value <= 0.0 ? 0 : static_cast<std::uint64_t>(value);
}

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace wormsched
