// Deterministic pseudo-random number generation for reproducible experiments.
//
// The GA planner's results tables are only meaningful if every run is exactly
// reproducible from a 64-bit seed, so we ship our own small, well-known
// generators instead of depending on the (implementation-defined) distributions
// of <random>:
//   * splitmix64  — seed expansion / cheap stateless stream splitting
//   * xoshiro256**— the workhorse generator (Blackman & Vigna, 2018)
//
// All floating-point helpers return values in [0, 1) built from the top 53
// bits, so gene -> operation mapping (see core/decoder.hpp) is bit-stable
// across platforms.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace gaplan::util {

/// Stateless seed mixer. Used to expand one user seed into the four words of
/// xoshiro state and to derive independent per-run / per-island streams.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0. Satisfies UniformRandomBitGenerator so it can be handed
/// to standard algorithms, but the helpers below are preferred because their
/// results are platform-stable.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 as recommended by the authors.
  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
    // All-zero state is a fixed point of xoshiro; splitmix64 cannot emit four
    // zero words in a row, but guard anyway for belt-and-braces.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
      state_[0] = 1;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 top bits / 2^53.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire-style
  /// rejection to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// chance(p) as one integer compare, for loops that draw against a fixed
  /// p: chance_below(chance_threshold(p)) consumes the same draw and returns
  /// the same result as chance(p). uniform() < p is (x >> 11) < p·2^53 for
  /// the integer x >> 11 < 2^53, and p·2^53 is exact, so its ceiling is the
  /// threshold.
  static std::uint64_t chance_threshold(double p) noexcept {
    if (!(p > 0.0)) return 0;  // never (NaN included)
    if (p >= 1.0) return std::uint64_t{1} << 53;  // always
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }
  bool chance_below(std::uint64_t threshold) noexcept {
    return ((*this)() >> 11) < threshold;
  }

  /// Fisher–Yates shuffle (platform-stable, unlike std::shuffle).
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child stream (for per-run / per-island seeding).
  Rng split() noexcept {
    std::uint64_t s = (*this)();
    return Rng(splitmix64(s));
  }

  /// Gaussian via Marsaglia polar method (used by workload generators).
  double gaussian(double mean = 0.0, double stddev = 1.0) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace gaplan::util
