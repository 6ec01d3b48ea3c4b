#include "core/config.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace gaplan::ga {

const char* to_string(CrossoverKind k) noexcept {
  switch (k) {
    case CrossoverKind::kRandom: return "random";
    case CrossoverKind::kStateAware: return "state-aware";
    case CrossoverKind::kMixed: return "mixed";
    case CrossoverKind::kUniform: return "uniform";
  }
  return "?";
}

const char* to_string(EncodingKind k) noexcept {
  switch (k) {
    case EncodingKind::kIndirect: return "indirect";
    case EncodingKind::kDirect: return "direct";
  }
  return "?";
}

const char* to_string(CostFitnessKind k) noexcept {
  switch (k) {
    case CostFitnessKind::kNormalizedLength: return "normalized-length";
    case CostFitnessKind::kInverseCost: return "inverse-cost";
  }
  return "?";
}

const char* to_string(SelectionKind k) noexcept {
  switch (k) {
    case SelectionKind::kTournament: return "tournament";
    case SelectionKind::kRoulette: return "roulette";
  }
  return "?";
}

const char* to_string(StateMatchKind k) noexcept {
  switch (k) {
    case StateMatchKind::kValidOps: return "valid-ops";
    case StateMatchKind::kExactState: return "exact-state";
  }
  return "?";
}

const char* to_string(ReplacementKind k) noexcept {
  switch (k) {
    case ReplacementKind::kGenerational: return "generational";
    case ReplacementKind::kCrowding: return "crowding";
  }
  return "?";
}

namespace {
void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("GaConfig: ") + what);
}
}  // namespace

void GaConfig::validate() const {
  // NaN slips through every `x < lo || x > hi` range check below (both
  // comparisons are false), and +inf weights pass plain `>= 0`: gate all
  // double knobs on finiteness first so neither reaches fitness scoring or
  // the plan-cache fingerprint.
  check(std::isfinite(crossover_rate) && std::isfinite(mutation_rate) &&
            std::isfinite(seed_fraction) && std::isfinite(seed_greediness) &&
            std::isfinite(goal_weight) && std::isfinite(cost_weight) &&
            std::isfinite(match_weight),
        "rates and weights must be finite (no NaN/inf)");
  check(population_size >= 2, "population_size must be >= 2");
  check(population_size % 2 == 0, "population_size must be even (pairwise crossover)");
  check(generations >= 1, "generations must be >= 1");
  check(phases >= 1, "phases must be >= 1");
  check(initial_length >= 1, "initial_length must be >= 1");
  check(max_length >= initial_length, "max_length must be >= initial_length");
  check(crossover_rate >= 0.0 && crossover_rate <= 1.0,
        "crossover_rate must be in [0, 1]");
  check(mutation_rate >= 0.0 && mutation_rate <= 1.0,
        "mutation_rate must be in [0, 1]");
  check(tournament_size >= 1, "tournament_size must be >= 1");
  check(goal_weight >= 0.0 && cost_weight >= 0.0,
        "fitness weights must be non-negative");
  check(goal_weight + cost_weight > 0.0, "fitness weights must not both be 0");
  check(match_weight >= 0.0, "match_weight must be non-negative");
  check(elite_count < population_size, "elite_count must be < population_size");
  check(seed_fraction >= 0.0 && seed_fraction <= 1.0,
        "seed_fraction must be in [0, 1]");
  check(seed_greediness >= 0.0 && seed_greediness <= 1.0,
        "seed_greediness must be in [0, 1]");
  check(!incremental_eval || eval_checkpoint_stride >= 1,
        "eval_checkpoint_stride must be >= 1 when incremental_eval is on");
}

GaConfig GaConfig::scaled(double generations_factor, double population_factor,
                          std::size_t max_population) const {
  GaConfig out = *this;
  out.generations = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(static_cast<double>(generations) * generations_factor)));
  std::size_t pop = static_cast<std::size_t>(
      std::llround(static_cast<double>(population_size) * population_factor));
  std::size_t cap = std::max<std::size_t>(2, max_population);
  cap -= cap % 2;  // the cap itself must be reachable by an even population
  pop = std::min(std::max<std::size_t>(2, pop), cap);
  pop += pop % 2;
  out.population_size = pop;
  out.elite_count = std::min(elite_count, pop - 1);
  return out;
}

std::string GaConfig::summary() const {
  std::ostringstream os;
  os << "pop=" << population_size << " gens=" << generations
     << " phases=" << phases << " xover=" << to_string(crossover);
  if (crossover == CrossoverKind::kStateAware || crossover == CrossoverKind::kMixed) {
    os << "(" << to_string(state_match) << ")";
  }
  os << " pc=" << crossover_rate << " pm=" << mutation_rate
     << " sel=" << to_string(selection) << "(" << tournament_size << ")";
  if (replacement != ReplacementKind::kGenerational) {
    os << " repl=" << to_string(replacement);
  }
  os
     << " w_g=" << goal_weight << " w_c=" << cost_weight
     << " len0=" << initial_length << " maxlen=" << max_length
     << " enc=" << to_string(encoding);
  if (incremental_eval) {
    os << " inc-eval(stride=" << eval_checkpoint_stride
       << ",cache=" << ops_cache_size << ")";
  } else {
    os << " cold-eval";
  }
  return os.str();
}

}  // namespace gaplan::ga
