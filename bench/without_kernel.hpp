// Benchmark baseline for the kernel decode: WithoutKernel<P> forwards a
// domain's planning API (including kCacheableOps and the direct-encoding
// surface) but not its simd_kernel(), so ga::PhaseRunner's evaluation pass
// over it decodes over ProblemOps (valid_ops through the valid-ops
// transposition cache) instead of the kernel's LutOps, on an identical GA
// trajectory. Comparing P against WithoutKernel<P> isolates what the LUT and
// the vector step buy inside one pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"

namespace gaplan::bench {

template <ga::PlanningProblem P>
class WithoutKernel {
 public:
  using StateT = typename P::StateT;
  static constexpr bool kCacheableOps = ga::CacheableOps<P>;

  explicit WithoutKernel(const P& inner) : inner_(&inner) {}

  StateT initial_state() const { return inner_->initial_state(); }
  void valid_ops(const StateT& s, std::vector<int>& out) const {
    inner_->valid_ops(s, out);
  }
  void apply(StateT& s, int op) const { inner_->apply(s, op); }
  double op_cost(const StateT& s, int op) const { return inner_->op_cost(s, op); }
  std::string op_label(const StateT& s, int op) const {
    return inner_->op_label(s, op);
  }
  double goal_fitness(const StateT& s) const { return inner_->goal_fitness(s); }
  bool is_goal(const StateT& s) const { return inner_->is_goal(s); }
  std::uint64_t hash(const StateT& s) const { return inner_->hash(s); }

  std::size_t op_count() const
    requires ga::DirectEncodable<P>
  {
    return inner_->op_count();
  }
  bool op_applicable(const StateT& s, int op) const
    requires ga::DirectEncodable<P>
  {
    return inner_->op_applicable(s, op);
  }

 private:
  const P* inner_;
};

}  // namespace gaplan::bench
