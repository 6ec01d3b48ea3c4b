// The paper's three crossover mechanisms (§3.4.2) plus mutation (§3.4.3).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/crossover.hpp"
#include "core/decoder.hpp"
#include "core/mutation.hpp"
#include "domains/hanoi.hpp"
#include "domains/sliding_tile.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;
using domains::Hanoi;
using domains::HanoiState;
using Ind = ga::Individual<HanoiState>;

ga::Genome random_genome(std::size_t len, util::Rng& rng) {
  ga::Genome g(len);
  for (auto& x : g) x = rng.uniform();
  return g;
}

/// Decodes and attaches the evaluation (hashes on) as the engine would.
void eval(const Hanoi& h, Ind& ind) {
  std::vector<int> scratch;
  ga::DecodeOptions opt;
  opt.truncate_at_goal = false;
  ind.eval = ga::decode_indirect(h, h.initial_state(), ind.genes, opt, scratch);
}

TEST(RandomCrossover, PreservesTotalGeneCount) {
  util::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    Ind a, b;
    a.genes = random_genome(2 + rng.below(30), rng);
    b.genes = random_genome(2 + rng.below(30), rng);
    const std::size_t total = a.genes.size() + b.genes.size();
    ASSERT_TRUE(ga::crossover_random(a, b, /*max_length=*/1000, rng));
    EXPECT_EQ(a.genes.size() + b.genes.size(), total);
    EXPECT_GE(a.genes.size(), 1u);
    EXPECT_GE(b.genes.size(), 1u);
  }
}

TEST(RandomCrossover, ChildrenAreSplices) {
  // With markers below/above 0.45 on the two parents, each child must be a
  // low-prefix + high-suffix splice (possibly with an empty part: cut points
  // range over [0, len]).
  util::Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    Ind a, b;
    a.genes = {0.1, 0.2, 0.3, 0.4};
    b.genes = {0.5, 0.6, 0.7, 0.8};
    ASSERT_TRUE(ga::crossover_random(a, b, 100, rng));
    for (const auto* child : {&a, &b}) {
      bool seen_other_parent = false;
      const bool starts_low = child->genes.front() < 0.45;
      for (const double g : child->genes) {
        const bool low = g < 0.45;
        if (low != starts_low) seen_other_parent = true;
        // Once the donor suffix starts, no gene from the prefix parent may
        // reappear: exactly one switch point.
        if (seen_other_parent) {
          ASSERT_NE(low, starts_low);
        }
      }
    }
  }
}

TEST(RandomCrossover, NeverProducesEmptyChildren) {
  util::Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    Ind a, b;
    a.genes = {0.5};
    b.genes = {0.1, 0.2, 0.3};
    if (ga::crossover_random(a, b, 100, rng)) {
      EXPECT_GE(a.genes.size(), 1u);
      EXPECT_GE(b.genes.size(), 1u);
      EXPECT_EQ(a.genes.size() + b.genes.size(), 4u);
    }
  }
}

TEST(RandomCrossover, RefusesEmptyParents) {
  util::Rng rng(3);
  Ind a, b;
  b.genes = {0.1, 0.2, 0.3};
  const auto b_copy = b.genes;
  EXPECT_FALSE(ga::crossover_random(a, b, 100, rng));
  EXPECT_EQ(b.genes, b_copy);
}

TEST(RandomCrossover, LengthsCanGrowPastParents) {
  // Boundary cuts are the growth mechanism (DESIGN.md): some child must come
  // out strictly longer than both parents within a few hundred trials.
  util::Rng rng(21);
  bool grew = false;
  for (int trial = 0; trial < 300 && !grew; ++trial) {
    Ind a, b;
    a.genes = random_genome(10, rng);
    b.genes = random_genome(10, rng);
    if (ga::crossover_random(a, b, 100, rng)) {
      grew = a.genes.size() > 10 || b.genes.size() > 10;
    }
  }
  EXPECT_TRUE(grew);
}

TEST(RandomCrossover, EnforcesMaxLen) {
  util::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    Ind a, b;
    a.genes = random_genome(50, rng);
    b.genes = random_genome(50, rng);
    ga::crossover_random(a, b, 60, rng);
    EXPECT_LE(a.genes.size(), 60u);
    EXPECT_LE(b.genes.size(), 60u);
  }
}

TEST(StateAwareCrossover, RequiresEvaluatedParents) {
  util::Rng rng(5);
  Ind a, b;
  a.genes = random_genome(10, rng);
  b.genes = random_genome(10, rng);
  std::vector<std::size_t> buf;
  // No evaluation → no trajectory hashes → no crossover.
  EXPECT_FALSE(ga::crossover_state_aware(a, b, 100,
                                         ga::StateMatchKind::kExactState, rng, buf));
  EXPECT_FALSE(ga::crossover_state_aware(a, b, 100,
                                         ga::StateMatchKind::kValidOps, rng, buf));
}

TEST(StateAwareCrossover, IdenticalParentsAlwaysMatch) {
  const Hanoi h(3);
  util::Rng rng(6);
  Ind a;
  a.genes = random_genome(12, rng);
  eval(h, a);
  Ind b = a;
  std::vector<std::size_t> buf;
  EXPECT_TRUE(ga::crossover_state_aware(a, b, 100,
                                        ga::StateMatchKind::kExactState, rng, buf));
}

TEST(StateAwareCrossover, DonatedSuffixDecodesIdentically) {
  // The §3.4.2 guarantee: after a state-matched splice, the genes inherited
  // from the second parent decode to the same operation sequence they encoded
  // in that parent.
  const Hanoi h(4);
  util::Rng rng(7);
  int performed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Ind a, b;
    a.genes = random_genome(10 + rng.below(20), rng);
    b.genes = random_genome(10 + rng.below(20), rng);
    eval(h, a);
    eval(h, b);
    const Ind old_a = a, old_b = b;
    std::vector<std::size_t> buf;
    if (!ga::crossover_state_aware(a, b, 1000, ga::StateMatchKind::kExactState,
                                   rng, buf)) {
      continue;
    }
    ++performed;
    // Recover the cut points from the child structure: child a = old_a[0,c1)
    // + old_b[c2,..). Find c1 as the longest common prefix with old_a.
    std::size_t c1 = 0;
    while (c1 < a.genes.size() && c1 < old_a.genes.size() &&
           a.genes[c1] == old_a.genes[c1]) {
      ++c1;
    }
    const std::size_t suffix_len = a.genes.size() - c1;
    const std::size_t c2 = old_b.genes.size() - suffix_len;
    // Decode the child; its ops after c1 must equal old_b's ops after c2.
    Ind child = a;
    eval(h, child);
    ASSERT_GE(child.eval.ops.size(), c1);
    for (std::size_t i = c1; i < child.eval.ops.size(); ++i) {
      const std::size_t j = c2 + (i - c1);
      ASSERT_LT(j, old_b.eval.ops.size());
      ASSERT_EQ(child.eval.ops[i], old_b.eval.ops[j])
          << "suffix op diverged at child position " << i;
    }
  }
  EXPECT_GT(performed, 10) << "state-aware matches were unrealistically rare";
}

TEST(MixedCrossover, FallsBackToRandom) {
  // Under exact-state matching, random parents rarely share interior states;
  // mixed must still cross over by falling back to random one-point.
  const Hanoi h(5);
  util::Rng rng(8);
  ga::GaConfig cfg;
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.state_match = ga::StateMatchKind::kExactState;
  cfg.max_length = 100;
  ga::CrossoverStats stats;
  std::vector<std::size_t> buf;
  for (int trial = 0; trial < 100; ++trial) {
    Ind a, b;
    a.genes = random_genome(15, rng);
    b.genes = random_genome(15, rng);
    eval(h, a);
    eval(h, b);
    ga::crossover_pair(cfg, a, b, rng, stats, buf);
  }
  EXPECT_EQ(stats.pairs, 100u);
  EXPECT_EQ(stats.state_aware_done + stats.random_done + stats.too_short, 100u);
  EXPECT_GT(stats.random_done, 0u);
}

TEST(StateAwareCrossover, ValidOpsMatchingFindsFarMoreMatches) {
  // The default valid-ops reading matches whenever the cut states expose the
  // same legal-move list; exact-state matching needs identical boards. On
  // random 8-puzzle parents the former must succeed much more often.
  const gaplan::domains::SlidingTile p(3);
  util::Rng inst_rng(41), rng(42);
  std::size_t valid_ops_hits = 0, exact_hits = 0;
  std::vector<std::size_t> buf;
  std::vector<int> scratch;
  ga::DecodeOptions opt;
  opt.truncate_at_goal = false;
  const auto start = p.random_solvable(inst_rng);
  for (int trial = 0; trial < 200; ++trial) {
    ga::Individual<gaplan::domains::TileState> a, b;
    a.genes = random_genome(20, rng);
    b.genes = random_genome(20, rng);
    a.eval = ga::decode_indirect(p, start, a.genes, opt, scratch);
    b.eval = ga::decode_indirect(p, start, b.genes, opt, scratch);
    auto a2 = a, b2 = b;
    valid_ops_hits += ga::crossover_state_aware(
        a, b, 1000, ga::StateMatchKind::kValidOps, rng, buf);
    exact_hits += ga::crossover_state_aware(
        a2, b2, 1000, ga::StateMatchKind::kExactState, rng, buf);
  }
  EXPECT_GT(valid_ops_hits, 150u);
  EXPECT_GT(valid_ops_hits, 2 * exact_hits);
}

TEST(StateAwareCrossover, ValidOpsMatchPreservesCutPointMapping) {
  // After a valid-ops splice the first donated gene must decode to exactly
  // the operation it encoded in its original parent (the op lists match at
  // the cut).
  const gaplan::domains::SlidingTile p(3);
  util::Rng inst_rng(43), rng(44);
  const auto start = p.random_solvable(inst_rng);
  std::vector<std::size_t> buf;
  std::vector<int> scratch;
  ga::DecodeOptions opt;
  opt.truncate_at_goal = false;
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ga::Individual<gaplan::domains::TileState> a, b;
    a.genes = random_genome(15, rng);
    b.genes = random_genome(15, rng);
    a.eval = ga::decode_indirect(p, start, a.genes, opt, scratch);
    b.eval = ga::decode_indirect(p, start, b.genes, opt, scratch);
    const auto old_a = a, old_b = b;
    if (!ga::crossover_state_aware(a, b, 1000, ga::StateMatchKind::kValidOps,
                                   rng, buf)) {
      continue;
    }
    std::size_t c1 = 0;
    while (c1 < a.genes.size() && c1 < old_a.genes.size() &&
           a.genes[c1] == old_a.genes[c1]) {
      ++c1;
    }
    const std::size_t c2 = old_b.genes.size() - (a.genes.size() - c1);
    if (c2 >= old_b.eval.ops.size()) continue;  // cut at b's trajectory end
    const auto child_eval = ga::decode_indirect(p, start, a.genes, opt, scratch);
    ASSERT_GT(child_eval.ops.size(), c1);
    EXPECT_EQ(child_eval.ops[c1], old_b.eval.ops[c2]);
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

TEST(CrossoverPair, StateAwareNoMatchKeepsParents) {
  const Hanoi h(3);
  util::Rng rng(9);
  ga::GaConfig cfg;
  cfg.crossover = ga::CrossoverKind::kStateAware;
  cfg.state_match = ga::StateMatchKind::kExactState;
  ga::CrossoverStats stats;
  std::vector<std::size_t> buf;
  // Construct parents whose interior states cannot match: different parity
  // walks. Simplest robust check: whenever no_match is reported, parents are
  // untouched.
  for (int trial = 0; trial < 200; ++trial) {
    Ind a, b;
    a.genes = random_genome(8, rng);
    b.genes = random_genome(8, rng);
    eval(h, a);
    eval(h, b);
    const auto ga_copy = a.genes, gb_copy = b.genes;
    const auto before = stats.no_match;
    ga::crossover_pair(cfg, a, b, rng, stats, buf);
    if (stats.no_match > before) {
      EXPECT_EQ(a.genes, ga_copy);
      EXPECT_EQ(b.genes, gb_copy);
    }
  }
}

TEST(UniformCrossover, OnlySwapsAlignedGenes) {
  util::Rng rng(10);
  Ind a, b;
  a.genes = {0.1, 0.2, 0.3, 0.4, 0.45};
  b.genes = {0.6, 0.7, 0.8};
  ASSERT_TRUE(ga::crossover_uniform(a, b, rng));
  EXPECT_EQ(a.genes.size(), 5u);
  EXPECT_EQ(b.genes.size(), 3u);
  // Each aligned slot holds one low and one high marker.
  for (std::size_t i = 0; i < 3; ++i) {
    const bool a_low = a.genes[i] < 0.5;
    const bool b_low = b.genes[i] < 0.5;
    EXPECT_NE(a_low, b_low);
  }
  // Tail beyond the shared prefix is untouched.
  EXPECT_DOUBLE_EQ(a.genes[3], 0.4);
  EXPECT_DOUBLE_EQ(a.genes[4], 0.45);
}

TEST(Mutation, RateZeroChangesNothing) {
  util::Rng rng(11);
  ga::Genome g = random_genome(50, rng);
  const auto copy = g;
  EXPECT_EQ(ga::mutate(g, 0.0, rng), 0u);
  EXPECT_EQ(g, copy);
}

TEST(Mutation, RateOneReplacesEverything) {
  util::Rng rng(12);
  ga::Genome g = random_genome(50, rng);
  const auto copy = g;
  EXPECT_EQ(ga::mutate(g, 1.0, rng), 50u);
  int unchanged = 0;
  for (std::size_t i = 0; i < g.size(); ++i) unchanged += (g[i] == copy[i]);
  EXPECT_EQ(unchanged, 0);
}

TEST(Mutation, RateMatchesExpectedFraction) {
  util::Rng rng(13);
  std::size_t mutated = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    ga::Genome g = random_genome(100, rng);
    mutated += ga::mutate(g, 0.01, rng);
  }
  // E[mutated] = 200 * 100 * 0.01 = 200.
  EXPECT_NEAR(static_cast<double>(mutated), 200.0, 60.0);
}

TEST(Mutation, NewGenesStayInUnitInterval) {
  util::Rng rng(14);
  ga::Genome g = random_genome(1000, rng);
  ga::mutate(g, 1.0, rng);
  for (const double x : g) {
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(CrossoverStats, MergeAccumulates) {
  ga::CrossoverStats a, b;
  a.pairs = 3;
  a.random_done = 2;
  b.pairs = 4;
  b.no_match = 1;
  a.merge(b);
  EXPECT_EQ(a.pairs, 7u);
  EXPECT_EQ(a.random_done, 2u);
  EXPECT_EQ(a.no_match, 1u);
}

}  // namespace
