#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace {

using gaplan::util::Rng;
using gaplan::util::splitmix64;

TEST(Splitmix64, AdvancesStateAndMixes) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

TEST(Splitmix64, DeterministicForEqualStates) {
  std::uint64_t s1 = 1234, s2 = 1234;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(42);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.0);
  }
}

TEST(Rng, BelowNeverReachesBound) {
  Rng rng(13);
  for (const std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) ASSERT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(23);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(8)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(31);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyTracksP) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ChanceThresholdDrawsLikeChance) {
  // chance_below(chance_threshold(p)) must consume the same draw and return
  // the same result as uniform() < p, on one fixed stream, including at the
  // exact boundary integers around the threshold.
  for (const double p : {0.0, 0x1.0p-53, 0.01, 0.5, std::nextafter(1.0, 0.0),
                         1.0}) {
    Rng a(47);
    Rng b(47);
    const std::uint64_t t = Rng::chance_threshold(p);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(a.chance_below(t), b.uniform() < p) << "p=" << p << " i=" << i;
    }
    EXPECT_EQ(a(), b()) << "streams diverged, p=" << p;
    for (std::uint64_t k = t > 2 ? t - 2 : 0; k <= t + 1 && k < (1ull << 53);
         ++k) {
      EXPECT_EQ(k < t, static_cast<double>(k) * 0x1.0p-53 < p)
          << "p=" << p << " k=" << k;
    }
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto shuffled = v;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(47);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(53);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(59), b(59);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca(), cb());
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ULL);
}

}  // namespace
