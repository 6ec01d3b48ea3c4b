#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace {

using gaplan::util::RunningStat;

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: Σ(x-5)² = 32 → 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  gaplan::util::Rng rng(3);
  RunningStat whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), mean);
}

TEST(RunningStat, MergeWithEmptyPreservesMinMax) {
  // Merging an empty accumulator must not drag min toward the empty
  // accumulator's zero-initialised fields, in either direction — this
  // matters for all-positive (or all-negative) samples.
  RunningStat a, empty;
  a.add(5.0);
  a.add(9.0);
  a.merge(empty);
  EXPECT_EQ(a.min(), 5.0);
  EXPECT_EQ(a.max(), 9.0);

  RunningStat b;
  b.merge(a);  // empty absorbs non-empty wholesale
  EXPECT_EQ(b.min(), 5.0);
  EXPECT_EQ(b.max(), 9.0);

  RunningStat neg, empty2;
  neg.add(-3.0);
  neg.merge(empty2);
  EXPECT_EQ(neg.min(), -3.0);
  EXPECT_EQ(neg.max(), -3.0);  // not pulled up to 0 by the empty side

  RunningStat both_empty, other_empty;
  both_empty.merge(other_empty);
  EXPECT_EQ(both_empty.count(), 0u);
}

TEST(RunningStat, MergeChainMatchesSequentialMinMax) {
  gaplan::util::Rng rng(11);
  RunningStat whole;
  RunningStat parts[4];
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(1.0, 100.0);
    whole.add(x);
    parts[i % 4].add(x);
  }
  RunningStat merged;
  for (const auto& p : parts) merged.merge(p);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9);
}

}  // namespace
