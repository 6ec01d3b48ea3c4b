// Kernel/domain agreement as a property (tests/prop/). A SIMD decode kernel
// (SimdDecodable, core/problem.hpp) replaces its domain's valid_ops, apply,
// op_cost, hash and is_goal inside KernelBatchDecoder, so it must agree with
// them bit for bit on every reachable state. Random walks on Hanoi (3-8
// disks, any start/goal stake pair), the sliding-tile puzzles (n = 2..5) and
// the pocket cube check, at every visited state:
//   * the LUT slot's unpacked ops equal valid_ops(s), in order;
//   * kernel hash/is_goal equal the domain's, and for every valid op kernel
//     op_cost and apply equal the domain's.
// Hanoi walks first replay the optimal plan, so the goal state is visited;
// the tile and cube walks start at their goal.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "core/problem.hpp"
#include "domains/hanoi.hpp"
#include "domains/pocket_cube.hpp"
#include "domains/sliding_tile.hpp"
#include "prop/prop.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;

enum class Domain { kHanoi, kTiles, kCube };

struct WalkCase {
  Domain domain = Domain::kHanoi;
  int size = 3;  ///< Hanoi disks or tile side n; unused for the cube
  int from_stake = 0;
  int to_stake = 1;
  std::vector<double> walk;  ///< one gene per step, indirect-encoded
};

prop::Gen<WalkCase> walk_case() {
  prop::Gen<WalkCase> g;
  g.sample = [](util::Rng& rng) {
    WalkCase c;
    c.domain = static_cast<Domain>(rng.below(3));
    if (c.domain == Domain::kHanoi) {
      c.size = 3 + static_cast<int>(rng.below(6));
      c.from_stake = static_cast<int>(rng.below(3));
      c.to_stake = (c.from_stake + 1 + static_cast<int>(rng.below(2))) % 3;
    } else if (c.domain == Domain::kTiles) {
      c.size = 2 + static_cast<int>(rng.below(4));
    }
    c.walk.resize(1 + rng.below(300));
    for (double& gene : c.walk) gene = rng.uniform();
    return c;
  };
  g.shrink = [](const WalkCase& c) {
    std::vector<WalkCase> out;
    if (c.walk.size() > 1) {
      WalkCase half = c;
      half.walk.resize(c.walk.size() / 2);
      out.push_back(std::move(half));
      WalkCase drop = c;
      drop.walk.pop_back();
      out.push_back(std::move(drop));
    }
    return out;
  };
  g.show = [](const WalkCase& c) {
    std::string s;
    switch (c.domain) {
      case Domain::kHanoi:
        s = "hanoi(disks=" + std::to_string(c.size) + ", " +
            std::to_string(c.from_stake) + "->" + std::to_string(c.to_stake) +
            ")";
        break;
      case Domain::kTiles:
        s = "tiles(n=" + std::to_string(c.size) + ")";
        break;
      case Domain::kCube:
        s = "cube";
        break;
    }
    return s + " walk=" + std::to_string(c.walk.size());
  };
  return g;
}

/// Checks the kernel against the domain at `s` and returns valid_ops(s).
template <typename P>
std::vector<int> expect_agree_at(const P& problem,
                                 const typename P::StateT& s,
                                 const std::string& where) {
  const auto& kernel = problem.simd_kernel();
  std::vector<int> ops;
  problem.valid_ops(s, ops);
  const std::uint32_t slot = kernel.lut_index(s);
  EXPECT_LT(slot, kernel.lut_size()) << where;
  if (slot >= kernel.lut_size()) return ops;
  const ga::PackedOps po{kernel.lut_ops(slot), kernel.lut_count(slot)};
  std::vector<int> lut;
  for (std::uint32_t j = 0; j < po.m; ++j) lut.push_back(po.op(j));
  EXPECT_EQ(lut, ops) << where << " slot " << slot;
  EXPECT_EQ(kernel.hash(s), problem.hash(s)) << where;
  EXPECT_EQ(kernel.is_goal(s), problem.is_goal(s)) << where;
  for (const int op : ops) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel.op_cost(s, op)),
              std::bit_cast<std::uint64_t>(problem.op_cost(s, op)))
        << where << " op " << op;
    auto by_kernel = s;
    auto by_domain = s;
    kernel.apply(by_kernel, op);
    problem.apply(by_domain, op);
    EXPECT_TRUE(by_kernel == by_domain) << where << " op " << op;
  }
  return ops;
}

/// Replays `prefix` (op ids) from the initial state, then walks `walk`
/// genes through the indirect encoding, checking every state visited.
template <typename P>
void expect_agree_on_walk(const P& problem, std::span<const int> prefix,
                          std::span<const double> walk) {
  auto s = problem.initial_state();
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    expect_agree_at(problem, s, "prefix step " + std::to_string(i));
    problem.apply(s, prefix[i]);
  }
  for (std::size_t i = 0;; ++i) {
    const std::vector<int> ops =
        expect_agree_at(problem, s, "walk step " + std::to_string(i));
    if (i == walk.size() || ops.empty()) break;
    problem.apply(s, ops[ga::gene_to_index(walk[i], ops.size())]);
  }
}

TEST(PropKernel, LutKernelsAgreeWithTheirDomains) {
  static_assert(ga::SimdDecodable<domains::Hanoi>);
  static_assert(ga::SimdDecodable<domains::SlidingTile>);
  static_assert(ga::SimdDecodable<domains::PocketCube>);
  prop::check(
      "kernel_domain_agreement", walk_case(),
      [](const WalkCase& c) {
        switch (c.domain) {
          case Domain::kHanoi: {
            const domains::Hanoi hanoi(c.size, c.from_stake, c.to_stake);
            const std::vector<int> plan = hanoi.optimal_plan();
            ASSERT_TRUE(ga::plan_solves(hanoi, hanoi.initial_state(), plan));
            expect_agree_on_walk(hanoi, plan, c.walk);
            break;
          }
          case Domain::kTiles:
            expect_agree_on_walk(domains::SlidingTile(c.size), {}, c.walk);
            break;
          case Domain::kCube:
            expect_agree_on_walk(domains::PocketCube(), {}, c.walk);
            break;
        }
      },
      {.iterations = 60});
}

TEST(PropKernel, HanoiLutCountIsPopcount) {
  // KernelBatchDecoder's vector step takes the valid-op count as the
  // popcount of the legality mask when the kernel claims
  // kLutCountIsPopcount; its constructor asserts the claim, but only in
  // builds without NDEBUG.
  static_assert(domains::HanoiKernel::kLutCountIsPopcount);
  for (const int disks : {1, 3, 8}) {
    const domains::Hanoi hanoi(disks);
    const auto& kernel = hanoi.simd_kernel();
    for (std::uint32_t i = 0; i < kernel.lut_size(); ++i) {
      EXPECT_EQ(kernel.lut_count(i),
                static_cast<std::uint32_t>(std::popcount(i)))
          << "disks " << disks << " slot " << i;
    }
  }
}

}  // namespace
