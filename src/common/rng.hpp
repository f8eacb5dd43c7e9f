// Deterministic pseudo-random number generation.
//
// Every experiment in the repository draws from exactly one seeded Rng per
// scenario so that figures regenerate bit-identically across runs and
// machines.  The generator is xoshiro256** (Blackman & Vigna): fast,
// 256-bit state, and — unlike std::mt19937 — identical output on every
// platform without depending on libstdc++ distribution internals.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace wormsched {

class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64
  /// (the seeding procedure recommended by the xoshiro authors).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform over the full 64-bit range.  Inline, like uniform_real()
  /// and bernoulli(): the traffic sources draw once per node per cycle.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform over [0, bound).  Unbiased (Lemire's rejection method).
  /// `bound` must be nonzero.
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform integer over the closed range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real over [0, 1) with 53 bits of precision.
  double uniform_real() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform real over [lo, hi).
  double uniform_real(double lo, double hi);

  /// True with probability `p` (clamped to [0,1]).  p <= 0 and p >= 1
  /// consume no draw.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_real() < p;
  }

  /// Exponentially distributed real with rate `lambda` (mean 1/lambda).
  double exponential(double lambda);

  /// Geometric-like truncated exponential integer on [lo, hi]:
  /// P(k) proportional to exp(-lambda * k), sampled by rejection.  This is
  /// the packet-length law of the paper's Fig. 6 experiment
  /// ("exponentially distributed with lambda = 0.2, in the range 1 to 64").
  std::int64_t truncated_exponential_int(double lambda, std::int64_t lo,
                                         std::int64_t hi);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  std::uint64_t poisson(double mean);

  /// Derives an independent child generator; used to give each flow its own
  /// stream so adding a flow does not perturb the others' draws.
  Rng split();

  /// Checkpoint/restore access to the raw 256-bit state.  set_state()
  /// rejects the all-zero state (the one fixed point of xoshiro256**).
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] const State& state() const { return state_; }
  void set_state(const State& state) {
    WS_CHECK_MSG((state[0] | state[1] | state[2] | state[3]) != 0,
                 "all-zero xoshiro state");
    state_ = state;
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace wormsched
