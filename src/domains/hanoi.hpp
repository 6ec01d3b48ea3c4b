// Towers of Hanoi planning domain (paper §4.1).
//
// Three stakes A, B, C and n disks d1 (smallest) .. dn (largest), all
// initially on A; the goal is all disks on B. A move transfers the top disk
// of one stake onto another stake whose top disk (if any) is larger. The
// optimal solution length is 2^n - 1.
//
// Goal fitness (Eq. 5 reconstruction): disk i weighs 2^(i-1); F_goal is the
// weight on stake B over the total weight 2^n - 1, so losing the largest disk
// costs just over half the score — exactly the deceptive-fitness trap the
// paper discusses.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/simd.hpp"

namespace gaplan::domains {

/// Packed Hanoi state: two bits per disk holding its stake (0=A, 1=B, 2=C).
/// Supports up to 32 disks. Invariant: fields above the problem's disk count
/// stay zero (states are only produced by initial_state + apply), which lets
/// the goal test compare the whole word at once.
struct HanoiState {
  std::uint64_t pegs = 0;

  bool operator==(const HanoiState&) const = default;
};

/// Batched-decode kernel for Hanoi (the core engine's SimdDecodable surface;
/// see core/problem.hpp — this header deliberately has no core includes).
///
/// The valid-move set of any state is a pure function of the three stake
/// tops: candidate (from, to) is legal iff top(from) < top(to) with empty
/// stakes ranked last. Six candidates → a 6-bit legality mask → a 64-entry
/// LUT of packed op lists, so the decoder replaces the scalar path's
/// vector fill + signature hash per gene with two table loads. Every method
/// here MUST stay bit-for-bit equivalent to Hanoi's own implementation
/// (valid_ops order included); tests/test_eval_soa.cpp holds the two paths
/// against each other.
class HanoiKernel {
 public:
  HanoiKernel() = default;
  HanoiKernel(int disks, std::uint64_t disk_mask,
              std::uint64_t goal_pegs) noexcept
      : disk_mask_(disk_mask), goal_pegs_(goal_pegs), disks_(disks) {
    // Candidates in Hanoi::valid_ops emission order (from-major, to-minor):
    // op ids 1, 2, 3, 5, 6, 7.
    constexpr int kFrom[6] = {0, 0, 1, 1, 2, 2};
    constexpr int kTo[6] = {1, 2, 0, 2, 0, 1};
    for (std::uint32_t m = 0; m < 64; ++m) {
      std::uint64_t packed = 0;
      std::uint32_t cnt = 0;
      for (int c = 0; c < 6; ++c) {
        if (m & (1u << c)) {
          const std::uint64_t op =
              static_cast<std::uint64_t>(kFrom[c] * 3 + kTo[c]);
          packed |= op << (4 * cnt);
          ++cnt;
        }
      }
      packed_[m] = packed;
      count_[m] = cnt;
    }
  }

  std::size_t lut_size() const noexcept { return 64; }

  /// 6-bit legality mask over the candidate moves, in canonical op order.
  std::uint32_t lut_index(const HanoiState& s) const noexcept {
    const int k0 = top_key(s, 0);
    const int k1 = top_key(s, 1);
    const int k2 = top_key(s, 2);
    return static_cast<std::uint32_t>(
        static_cast<int>(k0 < k1) | (static_cast<int>(k0 < k2) << 1) |
        (static_cast<int>(k1 < k0) << 2) | (static_cast<int>(k1 < k2) << 3) |
        (static_cast<int>(k2 < k0) << 4) | (static_cast<int>(k2 < k1) << 5));
  }

  std::uint64_t lut_ops(std::uint32_t slot) const noexcept {
    return packed_[slot];
  }
  std::uint32_t lut_count(std::uint32_t slot) const noexcept {
    return count_[slot];
  }

  void apply(HanoiState& s, int op) const noexcept {
    const int from = op / 3;
    const int to = op % 3;
    const int moving = top_disk(s, from);
    if (moving != 0) {
      const int shift = 2 * (moving - 1);
      s.pegs = (s.pegs & ~(3ULL << shift)) |
               (static_cast<std::uint64_t>(to) << shift);
    }
  }

  double op_cost(const HanoiState&, int) const noexcept { return 1.0; }

  std::uint64_t hash(const HanoiState& s) const noexcept {
    std::uint64_t x = s.pegs ^ (static_cast<std::uint64_t>(disks_) << 56);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
  }

  bool is_goal(const HanoiState& s) const noexcept {
    return s.pegs == goal_pegs_;
  }

  /// op_cost is identically 1.0, so the vector decode path may add a
  /// broadcast constant instead of gathering per-op costs. The core decoder
  /// requires this trait before selecting the 8-lane path.
  static constexpr bool kUnitOpCost = true;

  /// Every set bit of the legality mask contributes exactly one op, so
  /// lut_count(i) == popcount(i) and the vector path can use vpopcntq
  /// instead of gathering the count column.
  static constexpr bool kLutCountIsPopcount = true;

#if GAPLAN_AVX512_DECODE
GAPLAN_AVX512_WARNINGS_BEGIN
  // --- 8-lane vector step (KernelBatchDecoder::run_vector hooks) -----------
  // Each 64-bit lane of a __m512i holds one HanoiState::pegs word. These are
  // straight vector transliterations of the scalar methods above and must
  // stay bit-for-bit equivalent (tests/test_eval_soa.cpp holds the decode
  // paths against each other). They carry the AVX-512 target attribute, so
  // callers must gate on util::has_avx512_decode().

  /// lut_index for 8 states at once. top_key is rephrased branch-free: with
  /// `on` the stake's top-field mask (the same expression top_disk uses), the
  /// isolated lowest bit b = on & -on orders stakes exactly like the top-disk
  /// number, and b - 1 maps the empty stake (b == 0) to ~0 — "empty ranks
  /// below any disk" — while keeping the non-empty keys monotone (powers of
  /// two minus one preserve order). Six unsigned compares then assemble the
  /// same 6-bit legality mask as the scalar k0/k1/k2 comparisons.
  GAPLAN_AVX512_TARGET __m512i lut_index8(__m512i pegs) const noexcept {
    const __m512i fl = _mm512_set1_epi64(static_cast<long long>(kFieldLow));
    const __m512i dmfl = _mm512_set1_epi64(
        static_cast<long long>(kFieldLow & disk_mask_));
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi64(1);
    // Fields equal to stake w have both bits of pegs ^ (w replicated) clear.
    const __m512i x1 = _mm512_xor_epi64(pegs, fl);
    const __m512i x2 = _mm512_xor_epi64(pegs, _mm512_slli_epi64(fl, 1));
    const __m512i on0 = _mm512_andnot_epi64(
        _mm512_or_epi64(pegs, _mm512_srli_epi64(pegs, 1)), dmfl);
    const __m512i on1 = _mm512_andnot_epi64(
        _mm512_or_epi64(x1, _mm512_srli_epi64(x1, 1)), dmfl);
    const __m512i on2 = _mm512_andnot_epi64(
        _mm512_or_epi64(x2, _mm512_srli_epi64(x2, 1)), dmfl);
    const __m512i b0 = _mm512_and_epi64(on0, _mm512_sub_epi64(zero, on0));
    const __m512i b1 = _mm512_and_epi64(on1, _mm512_sub_epi64(zero, on1));
    const __m512i b2 = _mm512_and_epi64(on2, _mm512_sub_epi64(zero, on2));
    const __m512i k0 = _mm512_sub_epi64(b0, one);
    const __m512i k1 = _mm512_sub_epi64(b1, one);
    const __m512i k2 = _mm512_sub_epi64(b2, one);
    __m512i li = _mm512_and_epi64(
        one, _mm512_movm_epi64(_mm512_cmplt_epu64_mask(k0, k1)));
    li = _mm512_or_epi64(
        li, _mm512_and_epi64(_mm512_set1_epi64(2), _mm512_movm_epi64(
                                 _mm512_cmplt_epu64_mask(k0, k2))));
    li = _mm512_or_epi64(
        li, _mm512_and_epi64(_mm512_set1_epi64(4), _mm512_movm_epi64(
                                 _mm512_cmplt_epu64_mask(k1, k0))));
    li = _mm512_or_epi64(
        li, _mm512_and_epi64(_mm512_set1_epi64(8), _mm512_movm_epi64(
                                 _mm512_cmplt_epu64_mask(k1, k2))));
    li = _mm512_or_epi64(
        li, _mm512_and_epi64(_mm512_set1_epi64(16), _mm512_movm_epi64(
                                 _mm512_cmplt_epu64_mask(k2, k0))));
    li = _mm512_or_epi64(
        li, _mm512_and_epi64(_mm512_set1_epi64(32), _mm512_movm_epi64(
                                 _mm512_cmplt_epu64_mask(k2, k1))));
    return li;
  }

  /// apply for 8 lanes; lanes outside `lanes` keep their state. Mirrors the
  /// scalar apply: moving = top_disk(from) — a no-op when the from-stake is
  /// empty — then the moving disk's 2-bit field is overwritten with `to`.
  /// The shift kFieldLow << (from - 1) replicates `from` into every field
  /// (from == 0 makes the shift count huge, so the word is 0 == stake A's
  /// pattern, exactly what xor-with-zero needs).
  GAPLAN_AVX512_TARGET __m512i apply8(__m512i pegs, __m512i op,
                                      __mmask8 lanes) const noexcept {
    const __m512i fl = _mm512_set1_epi64(static_cast<long long>(kFieldLow));
    const __m512i dmfl = _mm512_set1_epi64(
        static_cast<long long>(kFieldLow & disk_mask_));
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i three = _mm512_set1_epi64(3);
    const __m512i op2 = _mm512_slli_epi64(op, 1);
    const __m512i from = _mm512_and_epi64(
        _mm512_srlv_epi64(_mm512_set1_epi64(static_cast<long long>(kFromW)),
                          op2),
        three);
    const __m512i to = _mm512_and_epi64(
        _mm512_srlv_epi64(_mm512_set1_epi64(static_cast<long long>(kToW)),
                          op2),
        three);
    const __m512i xf = _mm512_xor_epi64(
        pegs, _mm512_sllv_epi64(fl, _mm512_sub_epi64(from, one)));
    const __m512i onf = _mm512_andnot_epi64(
        _mm512_or_epi64(xf, _mm512_srli_epi64(xf, 1)), dmfl);
    const __m512i bf = _mm512_and_epi64(onf, _mm512_sub_epi64(zero, onf));
    // onf == 0 <=> empty from-stake <=> scalar moving == 0: leave the lane.
    const __mmask8 nonempty = _mm512_test_epi64_mask(onf, onf);
    const __m512i sh = _mm512_sub_epi64(_mm512_set1_epi64(63),
                                        _mm512_lzcnt_epi64(bf));
    const __m512i cleared =
        _mm512_andnot_epi64(_mm512_sllv_epi64(three, sh), pegs);
    const __m512i placed =
        _mm512_or_epi64(cleared, _mm512_sllv_epi64(to, sh));
    return _mm512_mask_blend_epi64(nonempty & lanes, pegs, placed);
  }

  /// is_goal for 8 lanes.
  GAPLAN_AVX512_TARGET __mmask8 is_goal8(__m512i pegs) const noexcept {
    return _mm512_cmpeq_epi64_mask(
        pegs, _mm512_set1_epi64(static_cast<long long>(goal_pegs_)));
  }
GAPLAN_AVX512_WARNINGS_END
#endif  // GAPLAN_AVX512_DECODE

 private:
  static constexpr std::uint64_t kFieldLow = 0x5555555555555555ULL;

  /// from/to stake of op id 0..8 as packed 2-bit fields: (word >> 2*op) & 3.
  static constexpr std::uint64_t kFromW = [] {
    std::uint64_t w = 0;
    for (int op = 0; op < 9; ++op) {
      w |= static_cast<std::uint64_t>(op / 3) << (2 * op);
    }
    return w;
  }();
  static constexpr std::uint64_t kToW = [] {
    std::uint64_t w = 0;
    for (int op = 0; op < 9; ++op) {
      w |= static_cast<std::uint64_t>(op % 3) << (2 * op);
    }
    return w;
  }();

  int top_disk(const HanoiState& s, int stake) const noexcept {
    const std::uint64_t x =
        s.pegs ^ (kFieldLow * static_cast<std::uint64_t>(stake));
    const std::uint64_t on = ~(x | (x >> 1)) & kFieldLow & disk_mask_;
    return on == 0 ? 0 : std::countr_zero(on) / 2 + 1;
  }

  /// Top disk of `stake`, with empty stakes ranked below any disk.
  int top_key(const HanoiState& s, int stake) const noexcept {
    const int top = top_disk(s, stake);
    return top == 0 ? kMaxDisks + 1 : top;
  }

  static constexpr int kMaxDisks = 32;

  std::array<std::uint64_t, 64> packed_{};  ///< 4-bit op fields per mask
  std::array<std::uint32_t, 64> count_{};   ///< valid-op count per mask
  std::uint64_t disk_mask_ = 0;
  std::uint64_t goal_pegs_ = 0;
  int disks_ = 0;
};

class Hanoi {
 public:
  using StateT = HanoiState;

  static constexpr int kStakes = 3;
  static constexpr int kMaxDisks = 32;

  /// valid_ops depends only on the packed state word, and the reachable space
  /// is tiny (3^n states), so the valid-ops cache converges to a full
  /// memo table: a hit replaces the O(disks) top-scan and up to six
  /// push_backs with one probe on a 64-bit key (core/eval_cache.hpp).
  static constexpr bool kCacheableOps = true;

  /// `disks` in [1, 32]. Initial stake defaults to A (0), goal stake to B (1)
  /// as in the paper's Figures 1-2.
  explicit Hanoi(int disks, int initial_stake = 0, int goal_stake = 1);

  int disks() const noexcept { return disks_; }
  int goal_stake() const noexcept { return goal_stake_; }

  /// Optimal solution length 2^n - 1.
  std::uint64_t optimal_length() const noexcept {
    return (std::uint64_t{1} << disks_) - 1;
  }

  // --- PlanningProblem concept ----------------------------------------------
  HanoiState initial_state() const noexcept { return initial_; }

  /// Valid moves in canonical order of global op id (from-stake*3 + to-stake,
  /// from != to: at most 6 of the 9 ids are meaningful).
  void valid_ops(const HanoiState& s, std::vector<int>& out) const;

  void apply(HanoiState& s, int op) const noexcept;

  double op_cost(const HanoiState&, int) const noexcept { return 1.0; }

  std::string op_label(const HanoiState&, int op) const;

  double goal_fitness(const HanoiState& s) const noexcept;

  /// O(1): all disks on the goal stake is one precomputed word (decode hot
  /// path — called once per decoded op).
  bool is_goal(const HanoiState& s) const noexcept {
    return s.pegs == goal_pegs_;
  }

  std::uint64_t hash(const HanoiState& s) const noexcept;
  // --- DirectEncodable ---------------------------------------------------------
  std::size_t op_count() const noexcept { return 9; }
  bool op_applicable(const HanoiState& s, int op) const noexcept;
  // ----------------------------------------------------------------------------

  /// Stake of disk `i` (1-based) in `s`.
  int stake_of(const HanoiState& s, int disk) const noexcept {
    return static_cast<int>((s.pegs >> (2 * (disk - 1))) & 3ULL);
  }

  /// Smallest (top) disk on `stake`, or 0 if the stake is empty. O(1): a
  /// field equals `stake` iff both bits of `pegs ^ (stake replicated)` are
  /// clear there; the lowest such field is the top disk (apply hot path).
  int top_disk(const HanoiState& s, int stake) const noexcept;

  /// Batched-decode kernel (core SimdDecodable). Built once in the ctor.
  const HanoiKernel& simd_kernel() const noexcept { return kernel_; }

  /// The classical recursive optimal plan as op ids (for tests/baselines).
  std::vector<int> optimal_plan() const;

  /// ASCII rendering in the style of the paper's Figures 1-2.
  std::string render(const HanoiState& s) const;

 private:
  void set_stake(HanoiState& s, int disk, int stake) const noexcept {
    const int shift = 2 * (disk - 1);
    s.pegs = (s.pegs & ~(3ULL << shift)) |
             (static_cast<std::uint64_t>(stake) << shift);
  }

  int disks_;
  int goal_stake_;
  HanoiState initial_;
  std::uint64_t disk_mask_ = 0;   ///< low 2*disks bits set
  std::uint64_t goal_pegs_ = 0;   ///< goal stake replicated into every field
  HanoiKernel kernel_;            ///< batched-decode twin of the above
};

}  // namespace gaplan::domains
