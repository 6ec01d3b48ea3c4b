#include "core/config.hpp"

#include <cmath>
#include <sstream>

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
