// The PlanningProblem concept: the contract between planning domains and the
// GA planner / baseline searchers.
//
// The paper defines a planning problem as a four-tuple ⟨C, O, s_I, s_G⟩. This
// concept is its executable form: a problem exposes its initial state, the
// set of operations valid in any state (in a canonical, deterministic order —
// the order the indirect encoding maps genes onto), state transition, cost,
// a goal test, and a goal-fitness heuristic in [0, 1].
//
// Compile-time polymorphism keeps decode loops free of virtual dispatch; the
// same domains feed the GA engine, BFS/A*/IDA*, and the plan validator.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

namespace gaplan::ga {

template <typename P>
concept PlanningProblem = requires(const P& p, typename P::StateT& s,
                                   const typename P::StateT& cs,
                                   std::vector<int>& ops, int op) {
  typename P::StateT;
  requires std::copyable<typename P::StateT>;
  requires std::equality_comparable<typename P::StateT>;
  { p.initial_state() } -> std::same_as<typename P::StateT>;
  // Fills `ops` with the ids of operations valid in `cs`, canonical order.
  { p.valid_ops(cs, ops) };
  // Applies operation `op` in place; `op` must be valid in `s`.
  { p.apply(s, op) };
  { p.op_cost(cs, op) } -> std::convertible_to<double>;
  { p.op_label(cs, op) } -> std::convertible_to<std::string>;
  // Domain-specific distance-to-goal in [0, 1]; 1 iff is_goal.
  { p.goal_fitness(cs) } -> std::convertible_to<double>;
  { p.is_goal(cs) } -> std::convertible_to<bool>;
  { p.hash(cs) } -> std::convertible_to<std::uint64_t>;
};

/// Opt-in trait for the per-thread valid-ops transposition cache (see
/// core/eval_cache.hpp): a domain declares `static constexpr bool
/// kCacheableOps = true` to assert that valid_ops is a pure function of the
/// state (no hidden mutable inputs), so its result may be memoized by state.
/// Domains whose valid_ops is already trivial (Hanoi's bit tests) gain
/// nothing from the cache and simply stay out.
template <typename P>
concept CacheableOps = PlanningProblem<P> && requires {
  { P::kCacheableOps } -> std::convertible_to<bool>;
} && P::kCacheableOps;

/// A packed valid-operation set as produced by a SIMD decode kernel's LUT:
/// up to 16 operation ids (each < 16) in the 4-bit fields of `packed`, lowest
/// field first, in the domain's canonical valid_ops order; `m` is the count.
/// One 64-bit load replaces the scalar path's vector fill per decoded gene.
struct PackedOps {
  std::uint64_t packed = 0;
  std::uint32_t m = 0;

  int op(std::size_t idx) const noexcept {
    return static_cast<int>((packed >> (4 * idx)) & 0xFULL);
  }
};

/// Opt-in surface for the population-wide kernel decode (decoder.hpp,
/// KernelBatchDecoder): a domain whose per-state valid-operation set is a
/// pure function of a small state key exposes `simd_kernel()`, an object
/// carrying a lookup table of packed operation sets plus inline
/// apply/cost/hash/goal replicas. The decoder runs the same decode core as
/// kernel-less domains over this LUT (detail::LutOps); a kernel may add the
/// 8-lane hooks of HanoiKernel for the AVX-512 group step, plus a lane-word
/// codec when its state is not one 64-bit word (TileKernel). The kernel MUST
/// agree bit-for-bit with the domain's own valid_ops/apply/op_cost/hash/
/// is_goal — tests/test_prop_kernel.cpp checks that on random walks, and the
/// engine's trajectories are held to golden fixtures recorded with a
/// per-genome decode (tests/test_golden.cpp, tests/test_eval_soa.cpp).
/// Constraints: every op id < 16 and every state has at most 16 valid
/// operations (the 4-bit packing above).
///
/// The kernel returns raw packed words (lut_ops/lut_count) rather than
/// PackedOps so domain headers stay free of core includes.
template <typename P>
concept SimdDecodable = PlanningProblem<P> &&
    requires(const P& p, typename P::StateT& s, const typename P::StateT& cs,
             int op, std::uint32_t slot) {
      { p.simd_kernel() };
      { p.simd_kernel().lut_size() } -> std::convertible_to<std::size_t>;
      { p.simd_kernel().lut_index(cs) } -> std::convertible_to<std::uint32_t>;
      { p.simd_kernel().lut_ops(slot) } -> std::convertible_to<std::uint64_t>;
      { p.simd_kernel().lut_count(slot) } -> std::convertible_to<std::uint32_t>;
      { p.simd_kernel().apply(s, op) };
      { p.simd_kernel().op_cost(cs, op) } -> std::convertible_to<double>;
      { p.simd_kernel().hash(cs) } -> std::convertible_to<std::uint64_t>;
      { p.simd_kernel().is_goal(cs) } -> std::convertible_to<bool>;
    };

/// Additional surface needed by the *direct* integer encoding (the paper's
/// discarded preliminary design, kept for the ablation study): a global
/// operation universe with an applicability test, so a gene can select an
/// operation that turns out to be invalid in the current state.
template <typename P>
concept DirectEncodable = PlanningProblem<P> &&
    requires(const P& p, const typename P::StateT& cs, int op) {
      { p.op_count() } -> std::convertible_to<std::size_t>;
      { p.op_applicable(cs, op) } -> std::convertible_to<bool>;
    };

/// Executes `plan` (operation ids) from `start`, verifying each step against
/// the problem's own valid-operation enumeration. Returns true iff every step
/// is valid and the final state satisfies the goal — the paper's definition
/// of a plan solving a problem instance.
template <PlanningProblem P>
bool plan_solves(const P& problem, typename P::StateT start,
                 const std::vector<int>& plan) {
  std::vector<int> valid;
  for (const int op : plan) {
    problem.valid_ops(start, valid);
    bool found = false;
    for (const int v : valid) {
      if (v == op) {
        found = true;
        break;
      }
    }
    if (!found) return false;
    problem.apply(start, op);
  }
  return problem.is_goal(start);
}

/// Total cost of executing `plan` from `start` (no validity checking beyond
/// what apply() requires; use plan_solves first).
template <PlanningProblem P>
double plan_cost(const P& problem, typename P::StateT start,
                 const std::vector<int>& plan) {
  double cost = 0.0;
  for (const int op : plan) {
    cost += problem.op_cost(start, op);
    problem.apply(start, op);
  }
  return cost;
}

/// Human-readable rendering of a plan ("op1 -> op2 -> ...").
template <PlanningProblem P>
std::string plan_to_string(const P& problem, typename P::StateT start,
                           const std::vector<int>& plan,
                           const std::string& sep = " -> ") {
  std::string out;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i) out += sep;
    out += problem.op_label(start, plan[i]);
    problem.apply(start, plan[i]);
  }
  return out;
}

}  // namespace gaplan::ga
