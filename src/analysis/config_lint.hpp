// GaConfig linter (gaplan-lint): the one list of GaConfig invariants, each a
// structured diagnostic, plus degradation warnings.
//
// Error codes (any of these makes the config unusable):
//   config.population-too-small   population_size < 2
//   config.population-odd         population_size not even (pairwise breeding;
//                                 GaConfig::scaled() must preserve parity)
//   config.no-generations         generations < 1
//   config.no-phases              phases < 1
//   config.bad-length             initial_length < 1 or max_length < initial
//   config.rate-out-of-range      crossover/mutation rate outside [0, 1]
//   config.bad-tournament         tournament_size < 1
//   config.bad-weights            negative weight, or w_g + w_c == 0
//   config.elite-too-large        elite_count >= population_size
//   config.bad-seeding            seed_fraction/seed_greediness outside [0, 1]
//   config.bad-checkpoint-stride  incremental_eval with stride < 1
//
// Warning codes (the GA runs, but degraded or not what the paper specifies):
//   config.weights-not-normalized     w_g + w_c != 1 (Eq. 3 assumes
//                                     normalized weights)
//   config.stride-exceeds-max-length  checkpoint stride > MaxLen: at most the
//                                     phase-start checkpoint exists, so
//                                     incremental resume degenerates
//   config.tournament-exceeds-population tournament larger than the
//                                     population: selection is deterministic
//                                     best-of-population
//   config.high-mutation-rate         per-gene mutation > 0.5: reproduction
//                                     is closer to random search
//
// The engine and replanner call enforce_config() before any evaluation: the
// errors throw std::invalid_argument, the warnings go to the run journal as
// "lint" events and bump the lint.warnings counter.
#pragma once

#include "analysis/diagnostic.hpp"
#include "core/config.hpp"

namespace gaplan::analysis {

Report lint_config(const ga::GaConfig& cfg);

/// Lints `cfg`; throws std::invalid_argument("GaConfig: ...") on the first
/// error and journals every finding under the given context tag.
void enforce_config(const ga::GaConfig& cfg, const char* context);

}  // namespace gaplan::analysis
