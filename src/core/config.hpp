// GA planner configuration — the knobs of the paper's Tables 1 and 3 plus the
// reproduction choices DESIGN.md documents (cost-fitness variant, goal
// truncation, encoding kind).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace gaplan::ga {

/// The paper's three crossover mechanisms (§3.4.2) plus a uniform-crossover
/// extension used in the ablation benches.
enum class CrossoverKind { kRandom, kStateAware, kMixed, kUniform };

/// Indirect float encoding (the paper's contribution, §3.1) vs the direct
/// integer encoding of its preliminary implementation (§3.3, Eq. 1).
enum class EncodingKind { kIndirect, kDirect };

/// Cost-fitness variant for Eq. (2), whose body is corrupt in the scan:
/// normalized length 1 - L/MaxLen (default) or inverse 1/(1 + cost).
enum class CostFitnessKind { kNormalizedLength, kInverseCost };

enum class SelectionKind { kTournament, kRoulette };

/// Survivor replacement scheme.
/// * kGenerational (the paper): tournament-selected parents breed a whole new
///   population; nothing survives unless re-selected.
/// * kCrowding (extension, Mahfoud's deterministic crowding): random parent
///   pairs breed; each child competes only against its more-similar parent
///   and replaces it when at least as fit. Preserves niches — the diversity
///   mechanism that counters the premature length-collapse analysed in
///   DESIGN.md/EXPERIMENTS.md.
enum class ReplacementKind { kGenerational, kCrowding };

/// What "two states match" means for state-aware crossover (§3.4.2: "the
/// same genetic code will be mapped to the same sequence of operations").
/// * kValidOps (default): the states expose identical ordered valid-operation
///   lists, so the gene at the cut point (and typically the genes after it)
///   keeps its operation mapping. Matches are frequent; this reading
///   reproduces the paper's Table 4/5 behaviour (see DESIGN.md).
/// * kExactState: the states are identical; the donated suffix decodes to
///   exactly the operations it encoded in its original parent, but matches
///   are rare and the operator under-mixes.
enum class StateMatchKind { kValidOps, kExactState };

const char* to_string(CrossoverKind k) noexcept;
const char* to_string(EncodingKind k) noexcept;
const char* to_string(CostFitnessKind k) noexcept;
const char* to_string(SelectionKind k) noexcept;
const char* to_string(StateMatchKind k) noexcept;
const char* to_string(ReplacementKind k) noexcept;

struct GaConfig {
  // --- population / run shape (Table 1 & 3 defaults) -----------------------
  std::size_t population_size = 200;
  std::size_t generations = 500;      ///< per phase
  std::size_t phases = 1;             ///< 1 = single-phase GA
  std::size_t initial_length = 32;    ///< genome length at init (problem-specific)
  std::size_t max_length = 320;       ///< MaxLen cap per individual

  // --- operators ------------------------------------------------------------
  CrossoverKind crossover = CrossoverKind::kRandom;
  StateMatchKind state_match = StateMatchKind::kValidOps;
  double crossover_rate = 0.9;
  double mutation_rate = 0.01;        ///< per-gene replacement probability
  SelectionKind selection = SelectionKind::kTournament;
  std::size_t tournament_size = 2;
  ReplacementKind replacement = ReplacementKind::kGenerational;
  /// Individuals copied unchanged into the next generation (0 = the paper's
  /// plain generational replacement; extension, ablated in bench/).
  std::size_t elite_count = 0;

  // --- population seeding (extension; §2 cites GenPlan's seeding studies:
  // "seeding partial solutions and keeping some randomness in the initial
  // population appear to benefit performance") ------------------------------
  /// Fraction of each initial population built greedily instead of randomly.
  double seed_fraction = 0.0;
  /// For seeded individuals: probability that each gene picks the successor
  /// with the best goal fitness (else a uniformly random valid operation).
  double seed_greediness = 0.7;

  // --- fitness (Eq. 3/4) ------------------------------------------------------
  double goal_weight = 0.9;           ///< w_g
  double cost_weight = 0.1;           ///< w_c
  CostFitnessKind cost_fitness = CostFitnessKind::kNormalizedLength;
  EncodingKind encoding = EncodingKind::kIndirect;
  /// Weight of match fitness under the direct encoding (Eq. 3 has an F_match
  /// term that vanishes under indirect encoding). Under indirect encoding this
  /// is ignored.
  double match_weight = 0.5;

  // --- reproduction choices (see DESIGN.md assumptions) ----------------------
  /// Treat the first goal-hitting prefix of a genome as the plan (and score
  /// goal fitness 1 for it).
  bool truncate_at_goal = true;
  /// Single-phase engines stop as soon as a valid individual appears; the
  /// paper's multi-phase driver instead checks validity at phase boundaries.
  bool stop_on_valid = true;
  // --- evaluation engine (PR 2: incremental decode; see docs/API.md
  // "Evaluation pipeline") --------------------------------------------------
  /// Re-decode children from the checkpointed trajectory of their parent
  /// instead of from the phase start state. Bit-identical results either way
  /// (decode_indirect_resume); off = always cold-decode, for A/B benching.
  bool incremental_eval = true;
  /// Record a decode checkpoint every this many applied operations; resuming
  /// replays at most this many states. 0 disables checkpoints (resume then
  /// falls back to cold decodes). Memory cost ≈ pop · len/stride states.
  std::size_t eval_checkpoint_stride = 16;
  /// Entries in each per-thread valid-ops transposition cache (rounded up to
  /// a power of two; 0 disables). Only domains declaring kCacheableOps use it.
  std::size_t ops_cache_size = 2048;

  /// Monotone multi-phase: a phase's best plan is appended only when it
  /// improves goal fitness over the phase's start state; otherwise the plan
  /// is discarded and the next phase restarts from the same state. Guards
  /// against the drift the plain §3.5 procedure suffers when a phase starts
  /// at a local fitness peak (every individual must move, so the phase best
  /// can end *worse* than it began). Ablated in bench/ablation_multiphase.
  bool monotone_phases = true;

  /// Escalated copy for planning retries (grid::ReplanConfig's backoff
  /// schedule): generations and population scaled by the given factors, the
  /// population kept even and clamped to [2, max_population], and elite_count
  /// re-clamped so the result still passes analysis::enforce_config.
  GaConfig scaled(double generations_factor, double population_factor,
                  std::size_t max_population) const;

  /// One-line summary for bench headers.
  std::string summary() const;
};

}  // namespace gaplan::ga
