#include "analysis/config_lint.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace gaplan::analysis {

namespace {

std::string num(double v) {
  std::string s = std::to_string(v);
  return s;
}

}  // namespace

Report lint_config(const ga::GaConfig& cfg) {
  Report report;

  // --- errors: the GaConfig invariants, one code each ---------------------
  // Finiteness first: NaN passes every range check below (both halves of
  // `x < lo || x > hi` are false) and +inf passes `>= 0`, but non-finite
  // knobs poison fitness scores and plan-cache fingerprints.
  {
    const struct { double v; const char* field; } doubles[] = {
        {cfg.crossover_rate, "crossover_rate"},
        {cfg.mutation_rate, "mutation_rate"},
        {cfg.seed_fraction, "seed_fraction"},
        {cfg.seed_greediness, "seed_greediness"},
        {cfg.goal_weight, "goal_weight"},
        {cfg.cost_weight, "cost_weight"},
        {cfg.match_weight, "match_weight"},
    };
    for (const auto& d : doubles) {
      if (!std::isfinite(d.v)) {
        report.error("config.non-finite",
                     std::string(d.field) + " must be finite (no NaN/inf)",
                     d.field);
      }
    }
  }
  if (cfg.population_size < 2) {
    report.error("config.population-too-small", "population_size must be >= 2",
                 "population_size");
  } else if (cfg.population_size % 2 != 0) {
    report.error("config.population-odd",
                 "population_size must be even (pairwise crossover)",
                 "population_size");
  }
  if (cfg.generations < 1) {
    report.error("config.no-generations", "generations must be >= 1",
                 "generations");
  }
  if (cfg.phases < 1) {
    report.error("config.no-phases", "phases must be >= 1", "phases");
  }
  if (cfg.initial_length < 1) {
    report.error("config.bad-length", "initial_length must be >= 1",
                 "initial_length");
  } else if (cfg.max_length < cfg.initial_length) {
    report.error("config.bad-length", "max_length must be >= initial_length",
                 "max_length");
  }
  if (cfg.crossover_rate < 0.0 || cfg.crossover_rate > 1.0) {
    report.error("config.rate-out-of-range", "crossover_rate must be in [0, 1]",
                 "crossover_rate");
  }
  if (cfg.mutation_rate < 0.0 || cfg.mutation_rate > 1.0) {
    report.error("config.rate-out-of-range", "mutation_rate must be in [0, 1]",
                 "mutation_rate");
  }
  if (cfg.tournament_size < 1) {
    report.error("config.bad-tournament", "tournament_size must be >= 1",
                 "tournament_size");
  }
  if (cfg.goal_weight < 0.0 || cfg.cost_weight < 0.0 ||
      std::isnan(cfg.goal_weight) || std::isnan(cfg.cost_weight)) {
    report.error("config.bad-weights", "fitness weights must be non-negative",
                 "goal_weight/cost_weight");
  } else if (cfg.goal_weight + cfg.cost_weight <= 0.0) {
    report.error("config.bad-weights", "fitness weights must not both be 0",
                 "goal_weight/cost_weight");
  }
  if (cfg.match_weight < 0.0 || std::isnan(cfg.match_weight)) {
    report.error("config.bad-weights", "match_weight must be non-negative",
                 "match_weight");
  }
  if (cfg.elite_count >= cfg.population_size) {
    report.error("config.elite-too-large",
                 "elite_count must be < population_size", "elite_count");
  }
  if (cfg.seed_fraction < 0.0 || cfg.seed_fraction > 1.0) {
    report.error("config.bad-seeding", "seed_fraction must be in [0, 1]",
                 "seed_fraction");
  }
  if (cfg.seed_greediness < 0.0 || cfg.seed_greediness > 1.0) {
    report.error("config.bad-seeding", "seed_greediness must be in [0, 1]",
                 "seed_greediness");
  }
  if (cfg.incremental_eval && cfg.eval_checkpoint_stride < 1) {
    report.error("config.bad-checkpoint-stride",
                 "eval_checkpoint_stride must be >= 1 when incremental_eval "
                 "is on",
                 "eval_checkpoint_stride");
  }
  if (report.has_errors()) return report;  // warnings assume a sane base

  // --- warnings: legal but degraded ----------------------------------------
  const double weight_sum = cfg.goal_weight + cfg.cost_weight;
  if (std::abs(weight_sum - 1.0) > 1e-9) {
    report.warning("config.weights-not-normalized",
                   "w_g + w_c = " + num(weight_sum) +
                       "; Eq. 3 assumes normalized weights (w_g + w_c = 1), "
                       "so fitness values are not comparable across configs",
                   "goal_weight/cost_weight");
  }
  if (cfg.incremental_eval && cfg.eval_checkpoint_stride > cfg.max_length) {
    report.warning("config.stride-exceeds-max-length",
                   "eval_checkpoint_stride (" +
                       std::to_string(cfg.eval_checkpoint_stride) +
                       ") exceeds max_length (" +
                       std::to_string(cfg.max_length) +
                       "): no mid-genome checkpoint is ever recorded, so "
                       "incremental resume degenerates to cold decodes",
                   "eval_checkpoint_stride");
  }
  if (cfg.selection == ga::SelectionKind::kTournament &&
      cfg.tournament_size > cfg.population_size) {
    report.warning("config.tournament-exceeds-population",
                   "tournament_size (" + std::to_string(cfg.tournament_size) +
                       ") exceeds population_size (" +
                       std::to_string(cfg.population_size) +
                       "): selection degenerates to always picking the "
                       "population best",
                   "tournament_size");
  }
  if (cfg.mutation_rate > 0.5) {
    report.warning("config.high-mutation-rate",
                   "per-gene mutation rate " + num(cfg.mutation_rate) +
                       " replaces most genes every generation — reproduction "
                       "degenerates toward random search",
                   "mutation_rate");
  }
  return report;
}

void enforce_config(const ga::GaConfig& cfg, const char* context) {
  const Report report = lint_config(cfg);
  report.emit_to_journal(context);
  if (report.has_errors()) {
    for (const Diagnostic& d : report.diagnostics()) {
      if (d.severity == Severity::kError) {
        throw std::invalid_argument("GaConfig: " + d.message + " [" + d.code +
                                    "]");
      }
    }
  }
}

}  // namespace gaplan::analysis
