// Mutation (§3.4.3): "Every gene has equal probability of being mutated. In
// every mutation, a new randomly generated floating point number replaces the
// old one."
#pragma once

#include <span>

#include "core/individual.hpp"
#include "util/rng.hpp"

namespace gaplan::ga {

/// Mutates each gene independently with probability `rate`; returns the
/// number of genes replaced and records the index of the first replaced gene
/// in `first_mutated` (untouched when nothing mutates — seed it with the
/// caller's current dirty bound, e.g. kCleanGenome). Draws the same random
/// sequence as mutate() below. The span form serves the struct-of-arrays
/// genome pool, whose genomes are lanes rather than vectors.
inline std::size_t mutate_tracked(std::span<Gene> genes, double rate,
                                  util::Rng& rng, std::size_t& first_mutated) {
  const std::uint64_t threshold = util::Rng::chance_threshold(rate);
  std::size_t mutated = 0;
  for (std::size_t i = 0; i < genes.size(); ++i) {
    if (rng.chance_below(threshold)) {
      genes[i] = rng.uniform();
      if (mutated == 0 && i < first_mutated) first_mutated = i;
      ++mutated;
    }
  }
  return mutated;
}

inline std::size_t mutate_tracked(Genome& genes, double rate, util::Rng& rng,
                                  std::size_t& first_mutated) {
  return mutate_tracked(std::span<Gene>(genes), rate, rng, first_mutated);
}

/// Mutates each gene independently with probability `rate`; returns the
/// number of genes replaced.
inline std::size_t mutate(Genome& genes, double rate, util::Rng& rng) {
  std::size_t first = kNoGoal;  // unused
  return mutate_tracked(genes, rate, rng, first);
}

}  // namespace gaplan::ga
