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
//
// The 8-lane vector hooks are a property too: on Hanoi and the tile puzzles
// that pack into a lane word (n = 2..4), every visited state survives the
// lane-word round trip (blank included), and 8 of them at a time give
// lut_index8 / is_goal8 / apply8 results equal to the scalar lut_index /
// is_goal / apply per lane, with lanes outside apply8's mask unchanged.
//
// So is the kernel pass's lane order: over drawn Hanoi slot sets (ties, 0, 1
// and more than 8 lanes, cold and resumed, serial and pooled), the lanes a
// pass decodes are the prepared lanes still decoding, longest remaining
// first, with the length sequence of a comparison sort and, without goal
// truncation, its vector step count. (With truncation a group whose longest
// lane stops at the goal steps only as long as its other lanes run, so the
// count also depends on how ties fall into groups, which std::sort leaves
// unspecified.)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "core/decoder.hpp"
#include "core/problem.hpp"
#include "domains/hanoi.hpp"
#include "domains/pocket_cube.hpp"
#include "domains/sliding_tile.hpp"
#include "obs/metrics.hpp"
#include "prop/prop.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

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

/// Draws the instance and walk of `c.domain`: Hanoi with 3-8 disks and any
/// stake pair, or tiles with side 2..max_side.
void draw_walk(WalkCase& c, util::Rng& rng, int max_side) {
  if (c.domain == Domain::kHanoi) {
    c.size = 3 + static_cast<int>(rng.below(6));
    c.from_stake = static_cast<int>(rng.below(3));
    c.to_stake = (c.from_stake + 1 + static_cast<int>(rng.below(2))) % 3;
  } else if (c.domain == Domain::kTiles) {
    c.size = 2 + static_cast<int>(rng.below(max_side - 1));
  }
  c.walk.resize(1 + rng.below(300));
  for (double& gene : c.walk) gene = rng.uniform();
}

prop::Gen<WalkCase> walk_case() {
  prop::Gen<WalkCase> g;
  g.sample = [](util::Rng& rng) {
    WalkCase c;
    c.domain = static_cast<Domain>(rng.below(3));
    draw_walk(c, rng, 5);
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

/// Checks the kernel against the domain at `s`.
template <typename P>
void expect_agree_at(const P& problem, const typename P::StateT& s,
                     const std::string& where) {
  const auto& kernel = problem.simd_kernel();
  std::vector<int> ops;
  problem.valid_ops(s, ops);
  const std::uint32_t slot = kernel.lut_index(s);
  EXPECT_LT(slot, kernel.lut_size()) << where;
  if (slot >= kernel.lut_size()) return;
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
}

/// Replays `prefix`, then walks `walk` through the indirect encoding, and
/// returns every state visited.
template <typename P>
std::vector<typename P::StateT> walk_states(const P& problem,
                                            std::span<const int> prefix,
                                            std::span<const double> walk) {
  std::vector<typename P::StateT> states;
  auto s = problem.initial_state();
  for (const int op : prefix) {
    states.push_back(s);
    problem.apply(s, op);
  }
  std::vector<int> ops;
  for (std::size_t i = 0;; ++i) {
    states.push_back(s);
    problem.valid_ops(s, ops);
    if (i == walk.size() || ops.empty()) break;
    problem.apply(s, ops[ga::gene_to_index(walk[i], ops.size())]);
  }
  return states;
}

/// Checks the kernel against the domain at every state of the walk.
template <typename P>
void expect_agree_on_walk(const P& problem, std::span<const int> prefix,
                          std::span<const double> walk) {
  const auto states = walk_states(problem, prefix, walk);
  for (std::size_t i = 0; i < states.size(); ++i) {
    expect_agree_at(problem, states[i], "state " + std::to_string(i));
  }
}

/// Walks on the kernels with 8-lane hooks whose states fit a lane word:
/// Hanoi, and tiles up to the 15-puzzle.
prop::Gen<WalkCase> lane_case() {
  prop::Gen<WalkCase> g = walk_case();
  g.sample = [](util::Rng& rng) {
    WalkCase c;
    c.domain = rng.below(2) == 0 ? Domain::kHanoi : Domain::kTiles;
    draw_walk(c, rng, 4);
    return c;
  };
  return g;
}

/// A state's lane word and back, as KernelBatchDecoder packs it: the
/// kernel's codec where it has one, else the raw bit pattern.
template <typename K, typename S>
std::uint64_t lane_word(const K& kernel, const S& s) {
  if constexpr (requires { kernel.to_word(s); }) {
    return kernel.to_word(s);
  } else {
    return std::bit_cast<std::uint64_t>(s);
  }
}
template <typename S, typename K>
S lane_state(const K& kernel, std::uint64_t w) {
  if constexpr (requires { kernel.from_word(w); }) {
    return kernel.from_word(w);
  } else {
    return std::bit_cast<S>(w);
  }
}

/// The op `gene` picks at `s` from the kernel's LUT, or -1 at a dead end.
template <typename K, typename S>
int lut_pick(const K& kernel, const S& s, double gene) {
  const std::uint32_t slot = kernel.lut_index(s);
  const ga::PackedOps po{kernel.lut_ops(slot), kernel.lut_count(slot)};
  return po.m == 0 ? -1 : po.op(ga::gene_to_index(gene, po.m));
}

#if GAPLAN_AVX512_DECODE
/// Windows of 8 consecutive walk states (the last repeated as padding) run
/// through the 8-lane hooks; each lane must match the scalar kernel. Genes
/// of the walk pick each lane's op and apply8's lane mask.
template <typename P>
GAPLAN_AVX512_TARGET void expect_hooks8_agree(
    const P& problem, const std::vector<typename P::StateT>& states,
    std::span<const double> walk) {
  using S = typename P::StateT;
  const auto& kernel = problem.simd_kernel();
  const auto gene = [&](std::size_t i) { return walk[i % walk.size()]; };
  for (std::size_t i = 0; i < states.size(); ++i) {
    S lane[8];
    int op[8];
    alignas(64) std::uint64_t w[8], opw[8], li[8], out[8];
    for (std::size_t j = 0; j < 8; ++j) {
      lane[j] = states[std::min(i + j, states.size() - 1)];
      w[j] = lane_word(kernel, lane[j]);
      op[j] = lut_pick(kernel, lane[j], gene(i + j));
      opw[j] = static_cast<std::uint64_t>(std::max(op[j], 0));
    }
    const auto mask = static_cast<__mmask8>(gene(i) * 256.0);
    const __m512i wv = _mm512_load_epi64(w);
    _mm512_store_epi64(li, kernel.lut_index8(wv));
    const __mmask8 goal = kernel.is_goal8(wv);
    _mm512_store_epi64(out,
                       kernel.apply8(wv, _mm512_load_epi64(opw), mask));
    for (std::size_t j = 0; j < 8; ++j) {
      const std::string where =
          "window " + std::to_string(i) + " lane " + std::to_string(j);
      EXPECT_EQ(li[j], kernel.lut_index(lane[j])) << where;
      EXPECT_EQ(((goal >> j) & 1) != 0, kernel.is_goal(lane[j])) << where;
      if (((mask >> j) & 1) == 0) {
        EXPECT_EQ(out[j], w[j]) << where << ": a masked-out lane changed";
      } else if (op[j] >= 0) {
        S want = lane[j];
        kernel.apply(want, op[j]);
        EXPECT_EQ(out[j], lane_word(kernel, want)) << where << " op " << op[j];
      }
    }
  }
}

/// lut_index8 of an all-zero lane word: the unused lanes of a vector
/// group hold zero, which must still index the LUT.
GAPLAN_AVX512_TARGET std::uint64_t lut_index8_of_zero(
    const domains::TileKernel& kernel) {
  alignas(64) std::uint64_t li[8];
  _mm512_store_epi64(li, kernel.lut_index8(_mm512_setzero_si512()));
  return li[0];
}
#endif

template <typename P>
void expect_lanes_agree(const P& problem, std::span<const int> prefix,
                        std::span<const double> walk) {
  using S = typename P::StateT;
  const auto& kernel = problem.simd_kernel();
  const std::vector<S> states = walk_states(problem, prefix, walk);
  for (std::size_t i = 0; i < states.size(); ++i) {
    const S& s = states[i];
    const S back = lane_state<S>(kernel, lane_word(kernel, s));
    EXPECT_TRUE(back == s) << "state " << i;
    if constexpr (std::is_same_v<S, domains::TileState>) {
      EXPECT_EQ(back.blank, s.blank) << "state " << i;
    }
  }
#if GAPLAN_AVX512_DECODE
  if (util::has_avx512_decode()) expect_hooks8_agree(problem, states, walk);
#endif
}

/// The tile kernel's neighbour-delta move against row/column arithmetic:
/// the blank moves one cell in op's direction and the tile there takes its
/// place (SlidingTile::apply shares the kernel's move, so the domain
/// agreement property cannot tell the two apart).
void expect_tile_moves_by_rows_and_columns(const domains::SlidingTile& tiles,
                                           std::span<const double> walk) {
  static constexpr int kRowDelta[4] = {-1, 1, 0, 0};
  static constexpr int kColDelta[4] = {0, 0, -1, 1};
  const int n = tiles.n();
  std::vector<int> ops;
  for (const domains::TileState& s : walk_states(tiles, {}, walk)) {
    tiles.valid_ops(s, ops);
    for (const int op : ops) {
      const int target = (s.blank / n + kRowDelta[op]) * n +
                         (s.blank % n + kColDelta[op]);
      domains::TileState moved = s;
      tiles.simd_kernel().apply(moved, op);
      EXPECT_EQ(moved.blank, target) << "op " << op;
      EXPECT_EQ(moved.cells[s.blank], s.cells[target]) << "op " << op;
      EXPECT_EQ(moved.cells[target], 0) << "op " << op;
    }
  }
}

TEST(PropKernel, LaneWordHooksMatchScalarKernel) {
#if GAPLAN_AVX512_DECODE
  if (util::has_avx512_decode()) {
    for (const int n : {2, 3, 4}) {
      const domains::SlidingTile tiles(n);
      EXPECT_LT(lut_index8_of_zero(tiles.simd_kernel()),
                tiles.simd_kernel().lut_size())
          << "n " << n;
    }
  }
#endif
  prop::check(
      "kernel_lane_words", lane_case(),
      [](const WalkCase& c) {
        if (c.domain == Domain::kHanoi) {
          const domains::Hanoi hanoi(c.size, c.from_stake, c.to_stake);
          expect_lanes_agree(hanoi, hanoi.optimal_plan(), c.walk);
        } else {
          const domains::SlidingTile tiles(c.size);
          ASSERT_TRUE(tiles.simd_kernel().word_lanes());
          expect_lanes_agree(tiles, {}, c.walk);
          expect_tile_moves_by_rows_and_columns(tiles, c.walk);
        }
      },
      {.iterations = 40});
  EXPECT_FALSE(domains::SlidingTile(5).simd_kernel().word_lanes());
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

/// One kernel pass over Hanoi slots: genome lengths drawn from a narrow range
/// so they tie, an empty genome finishing in prepare; `resumed` runs the pass
/// a second time over mutated copies resuming from the first pass's
/// evaluations, so lanes start at checkpoints or are reused whole.
struct OrderCase {
  int disks = 3;
  std::vector<std::size_t> lengths;
  bool resumed = false;
  bool pooled = false;
  std::uint64_t seed = 1;
};

prop::Gen<OrderCase> order_case() {
  prop::Gen<OrderCase> g;
  g.sample = [](util::Rng& rng) {
    OrderCase c;
    c.disks = 3 + static_cast<int>(rng.below(4));
    // 0, 1, up to a group, or several groups of lanes.
    static constexpr std::size_t kCounts[] = {0, 1, 8, 9, 40};
    const std::size_t count = rng.below(3) == 0
                                  ? kCounts[rng.below(std::size(kCounts))]
                                  : 1 + rng.below(60);
    const std::size_t lo = rng.below(40);
    const std::size_t spread = 1 + rng.below(rng.below(2) == 0 ? 4 : 80);
    for (std::size_t i = 0; i < count; ++i) {
      c.lengths.push_back(rng.below(10) == 0 ? 0 : lo + rng.below(spread));
    }
    c.resumed = rng.below(2) == 0;
    c.pooled = rng.below(2) == 0;
    c.seed = rng();
    return c;
  };
  g.shrink = [](const OrderCase& c) {
    std::vector<OrderCase> out;
    if (!c.lengths.empty()) {
      OrderCase half = c;
      half.lengths.resize(c.lengths.size() / 2);
      out.push_back(std::move(half));
      OrderCase drop = c;
      drop.lengths.pop_back();
      out.push_back(std::move(drop));
    }
    return out;
  };
  g.show = [](const OrderCase& c) {
    std::string s = "hanoi(" + std::to_string(c.disks) + ") lanes=" +
                    std::to_string(c.lengths.size()) + " lengths=[";
    for (const std::size_t len : c.lengths) s += std::to_string(len) + " ";
    return s + "]" + (c.resumed ? " resumed" : "") +
           (c.pooled ? " pooled" : "");
  };
  return g;
}

std::uint64_t simd_steps_now() {
  const auto snap = obs::snapshot_metrics();
  const auto* c = snap.find_counter("eval.simd_steps");
  return c == nullptr ? 0 : c->value;
}

using HanoiLane = ga::detail::KernelLane<domains::Hanoi::StateT>;

TEST(PropKernel, LaneOrderIsALongestFirstPermutation) {
  util::ThreadPool pool(2);
  prop::check(
      "kernel_lane_order", order_case(),
      [&pool](const OrderCase& c) {
        const domains::Hanoi hanoi(c.disks);
        // No goal truncation (and Hanoi has no dead ends), so every lane runs
        // its whole remaining() and a vector group steps as often as its
        // longest lane: the step count is a function of the length sequence.
        ga::DecodeOptions opt;
        opt.truncate_at_goal = false;
        opt.record_hashes = true;
        opt.checkpoint_stride = ga::GaConfig{}.eval_checkpoint_stride;
        const ga::KernelBatchDecoder<domains::Hanoi> kernel(hanoi, opt,
                                                            false);
        util::Rng rng(c.seed);
        const std::size_t n = c.lengths.size();
        std::vector<ga::Genome> parents(n), genomes(n);
        std::vector<ga::Evaluation<domains::Hanoi::StateT>> first(n),
            evals(n);
        std::vector<ga::detail::KernelSlot<domains::Hanoi::StateT>> slots(n);
        for (std::size_t i = 0; i < n; ++i) {
          parents[i].resize(c.lengths[i]);
          for (double& gene : parents[i]) gene = rng.uniform();
          slots[i].genes = parents[i];
          slots[i].ev = &first[i];
        }
        ga::detail::KernelScratch<domains::Hanoi::StateT> scratch;
        util::ThreadPool* const p = c.pooled ? &pool : nullptr;
        if (c.resumed) {
          kernel.run(hanoi.initial_state(), slots, scratch, p);
          for (std::size_t i = 0; i < n; ++i) {
            genomes[i] = parents[i];
            const std::size_t dirty = rng.below(c.lengths[i] + 1);
            if (dirty < genomes[i].size()) genomes[i][dirty] = rng.uniform();
            slots[i] = {genomes[i], &first[i], parents[i], dirty, &evals[i]};
          }
        } else {
          for (std::size_t i = 0; i < n; ++i) {
            genomes[i] = parents[i];
            slots[i] = {genomes[i], nullptr, {}, 0, &evals[i]};
          }
        }
        const std::uint64_t steps0 = simd_steps_now();
        kernel.run(hanoi.initial_state(), slots, scratch, p);
        const std::uint64_t steps = simd_steps_now() - steps0;

        std::vector<HanoiLane> live;
        for (const HanoiLane& ln : scratch.prepared) {
          if (ln.slot != nullptr) live.push_back(ln);
        }
        const std::vector<HanoiLane>& order = scratch.lanes;
        ASSERT_EQ(order.size(), live.size());
        for (std::size_t i = 1; i < order.size(); ++i) {
          EXPECT_GE(order[i - 1].remaining(), order[i].remaining()) << i;
        }
        const auto key = [](const HanoiLane& ln) {
          return std::pair(ln.slot, ln.pos);
        };
        std::vector<std::pair<const void*, std::size_t>> got, want;
        for (const HanoiLane& ln : order) got.push_back(key(ln));
        for (const HanoiLane& ln : live) want.push_back(key(ln));
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "not a permutation of the prepared lanes";

        std::vector<HanoiLane> sorted = live;
        std::sort(sorted.begin(), sorted.end(),
                  [](const HanoiLane& a, const HanoiLane& b) {
                    return a.remaining() > b.remaining();
                  });
        std::uint64_t sorted_steps = 0;
        for (std::size_t i = 0; i < sorted.size(); ++i) {
          EXPECT_EQ(order[i].remaining(), sorted[i].remaining()) << i;
          if (i % 8 == 0) sorted_steps += sorted[i].remaining();
        }
        bool vector = false;
#if GAPLAN_AVX512_DECODE
        vector = util::has_avx512_decode();
#endif
        EXPECT_EQ(steps, vector ? sorted_steps : 0u);

        // And the pass decoded every slot as a cold decode would.
        std::vector<int> ops_scratch;
        for (std::size_t i = 0; i < n; ++i) {
          const auto cold = ga::decode_indirect(hanoi, hanoi.initial_state(),
                                                genomes[i], opt, ops_scratch);
          EXPECT_EQ(evals[i].ops, cold.ops) << "slot " << i;
          EXPECT_EQ(evals[i].op_signatures, cold.op_signatures) << "slot " << i;
        }
      },
      {.iterations = 60});
}

}  // namespace
