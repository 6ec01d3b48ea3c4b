// Test-only Hanoi whose SIMD kernel forwards just the scalar hooks.
//
// ScalarKernelHanoi forwards Hanoi's planning API (including kCacheableOps)
// and exposes a simd_kernel() that forwards HanoiKernel's LUT and its scalar
// apply/op_cost/hash/is_goal, but none of the 8-lane hooks or traits. It is
// therefore SimdDecodable while KernelBatchDecoder's kVectorStep is false,
// so the kernel pass decodes every lane on the shared scalar loop: the path
// a vector kernel takes on CPUs without the AVX-512 decode, reachable here
// on any CPU.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "domains/hanoi.hpp"

namespace gaplan::tests {

/// HanoiKernel without lut_index8/apply8/is_goal8, kUnitOpCost and
/// kLutCountIsPopcount.
class ScalarHanoiKernel {
 public:
  explicit ScalarHanoiKernel(const domains::HanoiKernel& k) : k_(k) {}

  std::size_t lut_size() const noexcept { return k_.lut_size(); }
  std::uint32_t lut_index(const domains::HanoiState& s) const noexcept {
    return k_.lut_index(s);
  }
  std::uint64_t lut_ops(std::uint32_t slot) const noexcept {
    return k_.lut_ops(slot);
  }
  std::uint32_t lut_count(std::uint32_t slot) const noexcept {
    return k_.lut_count(slot);
  }
  void apply(domains::HanoiState& s, int op) const noexcept { k_.apply(s, op); }
  double op_cost(const domains::HanoiState& s, int op) const noexcept {
    return k_.op_cost(s, op);
  }
  std::uint64_t hash(const domains::HanoiState& s) const noexcept {
    return k_.hash(s);
  }
  bool is_goal(const domains::HanoiState& s) const noexcept {
    return k_.is_goal(s);
  }

 private:
  domains::HanoiKernel k_;
};

class ScalarKernelHanoi {
 public:
  using StateT = domains::HanoiState;
  static constexpr bool kCacheableOps = domains::Hanoi::kCacheableOps;

  explicit ScalarKernelHanoi(int disks)
      : inner_(disks), kernel_(inner_.simd_kernel()) {}

  const domains::Hanoi& inner() const noexcept { return inner_; }

  StateT initial_state() const { return inner_.initial_state(); }
  void valid_ops(const StateT& s, std::vector<int>& out) const {
    inner_.valid_ops(s, out);
  }
  void apply(StateT& s, int op) const { inner_.apply(s, op); }
  double op_cost(const StateT& s, int op) const { return inner_.op_cost(s, op); }
  std::string op_label(const StateT& s, int op) const {
    return inner_.op_label(s, op);
  }
  double goal_fitness(const StateT& s) const { return inner_.goal_fitness(s); }
  bool is_goal(const StateT& s) const { return inner_.is_goal(s); }
  std::uint64_t hash(const StateT& s) const { return inner_.hash(s); }

  const ScalarHanoiKernel& simd_kernel() const noexcept { return kernel_; }

 private:
  domains::Hanoi inner_;
  ScalarHanoiKernel kernel_;
};

}  // namespace gaplan::tests
