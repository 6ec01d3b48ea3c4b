// Self-tests of the property-testing substrate (tests/prop/prop.hpp): seed
// determinism, shrinking to a minimal counterexample, the failure report's
// replay line, regression-seed loading, and the env knobs (GAPLAN_PROP_SEED
// replay, GAPLAN_PROP_ITERS budget multiplier). The substrate must be
// trustworthy before any project invariant leans on it.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/config_lint.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;

/// Scoped setenv/unsetenv so env-knob tests cannot leak into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(PropSubstrate, SameSeedSameValue) {
  const auto gen = prop::genome(1, 64);
  util::Rng r1(0xFEED), r2(0xFEED), r3(0xFEED + 1);
  EXPECT_EQ(gen.sample(r1), gen.sample(r2));
  util::Rng r4(0xFEED);
  EXPECT_NE(gen.sample(r3), gen.sample(r4)) << "different seeds should differ";

  // The composite generators are pure functions of the seed too.
  util::Rng w1(7), w2(7);
  EXPECT_EQ(prop::render_wire(prop::random_wire_case(w1)),
            prop::render_wire(prop::random_wire_case(w2)));
  util::Rng c1(9), c2(9);
  EXPECT_EQ(prop::random_config(c1).summary(), prop::random_config(c2).summary());
}

TEST(PropSubstrate, IterationSeedsAreDistinct) {
  const std::uint64_t base = prop::detail::fnv1a("some-property");
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 100; ++i) {
    seeds.push_back(prop::detail::iteration_seed(base, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(PropSubstrate, ShrinksToMinimalCounterexampleAndPrintsReplaySeed) {
  // Property fails iff the vector has >= 5 elements: the minimal failing
  // vector has exactly 5, and the report must carry the replay seed.
  std::string text;
  const bool failed = prop::detail::fails_captured(
      [] {
        prop::check("substrate_selfcheck_shrink",
                    prop::vector_of(prop::integral<int>(0, 9), 0, 40),
                    [](const std::vector<int>& v) { EXPECT_LT(v.size(), 5u); },
                    {.iterations = 50});
      },
      text);
  ASSERT_TRUE(failed) << "a vector of >= 5 elements must be drawn in 50 tries";
  EXPECT_NE(text.find("property falsified"), std::string::npos) << text;
  EXPECT_NE(text.find("GAPLAN_PROP_SEED="), std::string::npos) << text;
  // vector_of shows values as "[len]{...}"; greedy shrink must reach the
  // minimal failing length exactly.
  EXPECT_NE(text.find("[5]{"), std::string::npos)
      << "not shrunk to the 5-element minimum:\n"
      << text;
}

TEST(PropSubstrate, PassingPropertyReportsNothing) {
  std::string text;
  const bool failed = prop::detail::fails_captured(
      [] {
        prop::check("substrate_selfcheck_pass", prop::integral<int>(0, 100),
                    [](const int& v) { EXPECT_GE(v, 0); }, {.iterations = 30});
      },
      text);
  EXPECT_FALSE(failed) << text;
}

TEST(PropSubstrate, ReplaySeedDrawsExactlyThatValue) {
  ScopedEnv env("GAPLAN_PROP_SEED", "12345");
  int runs = 0;
  int seen = -1;
  prop::check("substrate_selfcheck_replay", prop::integral<int>(0, 1 << 20),
              [&](const int& v) {
                ++runs;
                seen = v;
              },
              {.iterations = 50});
  EXPECT_EQ(runs, 1) << "replay mode runs exactly the requested seed";
  util::Rng rng(12345);
  const auto gen = prop::integral<int>(0, 1 << 20);
  EXPECT_EQ(seen, gen.sample(rng));
}

TEST(PropSubstrate, ItersMultiplierScalesBudget) {
  ScopedEnv env("GAPLAN_PROP_ITERS", "3");
  int runs = 0;
  prop::check("substrate_selfcheck_iters", prop::boolean(),
              [&](const bool&) { ++runs; }, {.iterations = 7});
  EXPECT_EQ(runs, 21);
}

TEST(PropSubstrate, RegressionSeedsFileParses) {
  // tests/data/prop/substrate_selftest.seeds is committed with two spellings
  // of 42 and a comment line; it also documents the format.
  const auto seeds = prop::detail::regression_seeds("substrate_selftest");
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0], 42u);
  EXPECT_EQ(seeds[1], 42u);
}

TEST(PropSubstrate, RegressionSeedsReplayBeforeRandomIterations) {
  std::vector<std::uint64_t> drawn;
  prop::Gen<std::uint64_t> seed_echo;
  seed_echo.sample = [](util::Rng& rng) { return rng(); };
  prop::check("substrate_selftest", seed_echo,
              [&](const std::uint64_t& v) { drawn.push_back(v); },
              {.iterations = 1});
  // 2 committed seeds + 1 random iteration.
  ASSERT_EQ(drawn.size(), 3u);
  util::Rng rng(42);
  EXPECT_EQ(drawn[0], rng());
  EXPECT_EQ(drawn[0], drawn[1]);
}

TEST(PropSubstrate, ConfigGeneratorShrinksTowardDefaults) {
  util::Rng rng(1);
  ga::GaConfig cfg = prop::random_config(rng);
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.elite_count = 3;
  const auto candidates = prop::shrink_config(cfg);
  ASSERT_FALSE(candidates.empty());
  for (const auto& c : candidates) {
    EXPECT_NO_THROW(analysis::enforce_config(c, "test")) << c.summary();
  }
  EXPECT_EQ(candidates.front().crossover, ga::CrossoverKind::kRandom);
}

}  // namespace
