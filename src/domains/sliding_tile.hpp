// Sliding-tile puzzle domain (paper §4.2): the 8-puzzle (n=3), 15-puzzle
// (n=4) and 24-puzzle (n=5) on an n×n board.
//
// Goal fitness (Eq. 6 reconstruction): 1 − MD/(D·T) where MD is the summed
// Manhattan distance of all tiles to their goal cells, D = 2(n−1) is the
// longest distance a single tile can need, and T = n²−1 the number of tiles.
//
// Includes the Johnson–Story (1879) solvability criterion the paper cites,
// random solvable-instance generation, and the Manhattan / linear-conflict
// heuristics (Korf & Taylor) used by the baseline searchers.
//
// TileKernel is the batched-decode twin of valid_ops/apply/hash: a per-blank
// LUT of valid moves and one neighbour-delta table, which SlidingTile::apply
// shares. The 8- and 15-puzzle boards (n <= 4) also pack into one 64-bit
// word, a nibble per cell, and decode 8 at a time on the AVX-512 vector step;
// the 24-puzzle (25 cells) stays on the shared scalar decode loop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace gaplan::domains {

/// Board state. cells[r*n+c] holds the tile at (r, c); 0 is the blank.
/// Fixed-capacity storage supports n up to 5 (the 24-puzzle).
struct TileState {
  static constexpr int kMaxCells = 25;
  std::array<std::uint8_t, kMaxCells> cells{};
  std::uint8_t blank = 0;  ///< index of the blank cell

  bool operator==(const TileState& rhs) const noexcept {
    return cells == rhs.cells;  // blank is derived from cells
  }
};

/// Batched-decode kernel for the sliding-tile puzzle (the core engine's
/// SimdDecodable surface; see core/problem.hpp — no core includes here).
///
/// The valid-move set depends only on where the blank sits, so a LUT with one
/// entry per board cell replaces the scalar path's four bounds checks, vector
/// fill, and signature hash per gene with two table loads. A move is one add
/// from the neighbour-delta table {-n, n, -1, 1}. Every method MUST stay
/// bit-for-bit equivalent to SlidingTile's own implementation (valid_ops
/// order included); tests/test_prop_kernel.cpp and tests/test_eval_soa.cpp
/// hold the two against each other.
///
/// Boards of up to 16 cells (n <= 4) also pack into one lane word, nibble i
/// holding the tile at cell i (to_word/from_word), which is what the 8-lane
/// vector step decodes; word_lanes() says whether this board fits.
class TileKernel {
 public:
  TileKernel() = default;
  explicit TileKernel(int n) noexcept
      : cells_(n * n), delta_{-n, n, -1, 1} {
    // Op ids in SlidingTile::valid_ops emission order (ascending):
    // 0 = blank up, 1 = down, 2 = left, 3 = right.
    for (int b = 0; b < cells_; ++b) {
      const int r = b / n;
      const int c = b % n;
      std::uint64_t packed = 0;
      std::uint32_t cnt = 0;
      const bool ok[4] = {r > 0, r < n - 1, c > 0, c < n - 1};
      for (int op = 0; op < 4; ++op) {
        if (ok[op]) {
          packed |= static_cast<std::uint64_t>(op) << (4 * cnt);
          ++cnt;
        }
      }
      packed_[b] = packed;
      count_[b] = cnt;
    }
    if (word_lanes()) {
      for (int i = 0; i < cells_; ++i) {
        cell_low_ |= std::uint64_t{1} << (4 * i);
        if (i + 1 < cells_) {
          goal_word_ |= static_cast<std::uint64_t>(i + 1) << (4 * i);
        }
      }
    }
  }

  std::size_t lut_size() const noexcept {
    return static_cast<std::size_t>(cells_);
  }
  std::uint32_t lut_index(const TileState& s) const noexcept {
    return s.blank;
  }
  std::uint64_t lut_ops(std::uint32_t slot) const noexcept {
    return packed_[slot];
  }
  std::uint32_t lut_count(std::uint32_t slot) const noexcept {
    return count_[slot];
  }

  /// Moves the blank by op (precondition: op is valid at s).
  void apply(TileState& s, int op) const noexcept {
    const int target = s.blank + delta_[op];
    s.cells[s.blank] = s.cells[target];
    s.cells[target] = 0;
    s.blank = static_cast<std::uint8_t>(target);
  }

  double op_cost(const TileState&, int) const noexcept { return 1.0; }

  std::uint64_t hash(const TileState& s) const noexcept {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (int i = 0; i < cells_; ++i) {
      h ^= s.cells[i];
      h *= 0x100000001B3ULL;
    }
    return h;
  }

  bool is_goal(const TileState& s) const noexcept {
    for (int i = 0; i < cells_ - 1; ++i) {
      if (s.cells[i] != i + 1) return false;
    }
    return true;
  }

  // --- lane word codec (boards of n <= 4) -----------------------------------

  /// Whether a board packs into one 64-bit word: 4 bits per cell.
  bool word_lanes() const noexcept { return cells_ <= 16; }

  /// The packed board: nibble i holds the tile at cell i (needs word_lanes).
  std::uint64_t to_word(const TileState& s) const noexcept {
    std::uint64_t w = 0;
    for (int i = 0; i < cells_; ++i) {
      w |= static_cast<std::uint64_t>(s.cells[i]) << (4 * i);
    }
    return w;
  }

  /// Unpacks a to_word board, rebuilding `blank` from its zero nibble.
  TileState from_word(std::uint64_t w) const noexcept {
    TileState s;
    for (int i = 0; i < cells_; ++i) {
      s.cells[i] = static_cast<std::uint8_t>((w >> (4 * i)) & 15);
      if (s.cells[i] == 0) s.blank = static_cast<std::uint8_t>(i);
    }
    return s;
  }

  /// The move cost is identically 1.0 (see HanoiKernel::kUnitOpCost).
  static constexpr bool kUnitOpCost = true;

#if GAPLAN_AVX512_DECODE
GAPLAN_AVX512_WARNINGS_BEGIN
  // --- 8-lane vector step (KernelBatchDecoder::run_vector hooks) -----------
  // Each 64-bit lane holds one to_word board. Straight vector transliterations
  // of lut_index / apply / is_goal; they carry the AVX-512 target attribute,
  // so callers must gate on util::has_avx512_decode().

  /// The blank's cell for 8 boards: the one zero nibble among the board's
  /// cells. OR-folding each nibble onto its low bit leaves that bit clear
  /// only for the blank, and lzcnt finds it. A lane word is always a board
  /// or zero (unused lanes), so the index stays inside the LUT.
  GAPLAN_AVX512_TARGET __m512i lut_index8(__m512i w) const noexcept {
    const __m512i any = _mm512_or_epi64(
        _mm512_or_epi64(w, _mm512_srli_epi64(w, 1)),
        _mm512_or_epi64(_mm512_srli_epi64(w, 2), _mm512_srli_epi64(w, 3)));
    const __m512i z = _mm512_andnot_epi64(
        any, _mm512_set1_epi64(static_cast<long long>(cell_low_)));
    return _mm512_srli_epi64(
        _mm512_sub_epi64(_mm512_set1_epi64(63), _mm512_lzcnt_epi64(z)), 2);
  }

  /// apply for 8 lanes; lanes outside `lanes` keep their board. The target
  /// cell is blank + delta[op]; its tile t moves into the blank's zero
  /// nibble, so one xor with t at both cells swaps them.
  GAPLAN_AVX512_TARGET __m512i apply8(__m512i w, __m512i op,
                                      __mmask8 lanes) const noexcept {
    const __m512i blank4 = _mm512_slli_epi64(lut_index8(w), 2);
    const __m512i delta4 = _mm512_permutexvar_epi64(
        op, _mm512_set_epi64(0, 0, 0, 0, 4 * delta_[3], 4 * delta_[2],
                             4 * delta_[1], 4 * delta_[0]));
    const __m512i target4 = _mm512_add_epi64(blank4, delta4);
    const __m512i t = _mm512_and_epi64(_mm512_srlv_epi64(w, target4),
                                       _mm512_set1_epi64(15));
    return _mm512_mask_xor_epi64(
        w, lanes, w,
        _mm512_or_epi64(_mm512_sllv_epi64(t, blank4),
                        _mm512_sllv_epi64(t, target4)));
  }

  /// is_goal for 8 lanes.
  GAPLAN_AVX512_TARGET __mmask8 is_goal8(__m512i w) const noexcept {
    return _mm512_cmpeq_epi64_mask(
        w, _mm512_set1_epi64(static_cast<long long>(goal_word_)));
  }
GAPLAN_AVX512_WARNINGS_END
#endif  // GAPLAN_AVX512_DECODE

 private:
  std::array<std::uint64_t, TileState::kMaxCells> packed_{};  ///< per blank
  std::array<std::uint32_t, TileState::kMaxCells> count_{};
  int cells_ = 0;
  std::array<int, 4> delta_{};  ///< cell offset of the blank's move, per op
  std::uint64_t cell_low_ = 0;   ///< low bit of every board nibble
  std::uint64_t goal_word_ = 0;  ///< to_word of the goal board
};

class SlidingTile {
 public:
  using StateT = TileState;

  /// Moves slide a tile *into* the blank; op ids name the direction the blank
  /// moves: 0 = up, 1 = down, 2 = left, 3 = right.
  enum Op : int { kUp = 0, kDown = 1, kLeft = 2, kRight = 3 };

  /// Builds the puzzle with the given initial board. `n` in [2, 5].
  SlidingTile(int n, TileState initial);

  /// Builds the puzzle with the canonical goal board as initial state (useful
  /// with scrambled()).
  explicit SlidingTile(int n);

  int n() const noexcept { return n_; }
  int tiles() const noexcept { return n_ * n_ - 1; }

  /// The canonical goal: 1..n²−1 in row-major order, blank last (Fig. 3b).
  TileState goal_state() const;

  // --- PlanningProblem concept ----------------------------------------------
  TileState initial_state() const noexcept { return initial_; }
  void valid_ops(const TileState& s, std::vector<int>& out) const;
  void apply(TileState& s, int op) const noexcept;
  double op_cost(const TileState&, int) const noexcept { return 1.0; }
  std::string op_label(const TileState& s, int op) const;
  double goal_fitness(const TileState& s) const noexcept;
  bool is_goal(const TileState& s) const noexcept;
  std::uint64_t hash(const TileState& s) const noexcept;
  // --- DirectEncodable --------------------------------------------------------
  std::size_t op_count() const noexcept { return 4; }
  bool op_applicable(const TileState& s, int op) const noexcept;
  // ----------------------------------------------------------------------------

  /// Batched-decode kernel (core SimdDecodable). Built once in the ctor.
  const TileKernel& simd_kernel() const noexcept { return kernel_; }

  /// Summed Manhattan distance of all tiles to their goal cells.
  int manhattan(const TileState& s) const noexcept;

  /// Manhattan + linear-conflict heuristic (admissible; Korf & Taylor).
  int linear_conflict(const TileState& s) const noexcept;

  /// Johnson–Story criterion: `s` can reach the canonical goal iff the board
  /// permutation parity matches the blank-row parity.
  bool solvable(const TileState& s) const noexcept;

  /// Uniform random *solvable* board (odd permutations are repaired by
  /// swapping two non-blank tiles).
  TileState random_solvable(util::Rng& rng) const;

  /// Board produced by `steps` random moves away from the goal (never
  /// undoing the previous move) — difficulty-controlled instances.
  TileState scrambled(std::size_t steps, util::Rng& rng) const;

  /// Parses a board from row-major tile numbers (0 = blank).
  TileState board(const std::vector<int>& tiles) const;

  /// ASCII rendering in the style of the paper's Figure 3.
  std::string render(const TileState& s) const;

 private:
  int row(int cell) const noexcept { return cell / n_; }
  int col(int cell) const noexcept { return cell % n_; }

  int n_;
  TileState initial_;
  TileKernel kernel_;  ///< batched-decode twin of valid_ops/apply/hash
};

}  // namespace gaplan::domains
