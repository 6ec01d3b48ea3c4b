// Crossover mechanisms (§3.4.2). "In each case, the children created replace
// their parents."
//
// * random      — variable-length one-point: independent interior cut points
//                 on each parent, tails exchanged. Because the encoding is
//                 indirect, the exchanged tail will generally decode to a
//                 *different* operation sequence in its new context.
// * state-aware — the second parent's cut point is restricted to positions
//                 whose decode state equals the first parent's cut state, so
//                 the donated tail decodes to exactly the operations it
//                 encoded in its original parent. If no matching point
//                 exists, no crossover is performed.
// * mixed       — state-aware when a matching point exists, else random.
// * uniform     — per-gene exchange (extension; not in the paper).
//
// State matching uses the 64-bit trajectory hashes recorded at evaluation
// time; a hash collision (~2^-64 per candidate pair) could admit a spurious
// match, which is harmless: the child is still a well-formed genome.
//
// crossover_lanes_into is the one implementation: it reads parent genomes as
// spans, splices children into caller-owned gene lanes (allocation-free, the
// engine's hot reproduction loop) and reports each child's first modified
// gene index, which is what the incremental decoder resumes from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>

#include "core/config.hpp"
#include "core/individual.hpp"
#include "util/rng.hpp"

namespace gaplan::ga {

/// Per-generation crossover accounting (Table 5 analysis uses these).
struct CrossoverStats {
  std::size_t pairs = 0;            ///< pairs that attempted crossover
  std::size_t random_done = 0;      ///< one-point exchanges performed
  std::size_t state_aware_done = 0; ///< state-matched exchanges performed
  std::size_t uniform_done = 0;
  std::size_t no_match = 0;         ///< state-aware found no matching point
  std::size_t too_short = 0;        ///< a parent had < 2 genes

  void merge(const CrossoverStats& o) noexcept {
    pairs += o.pairs;
    random_done += o.random_done;
    state_aware_done += o.state_aware_done;
    uniform_done += o.uniform_done;
    no_match += o.no_match;
    too_short += o.too_short;
  }
};

/// "Nothing changed": a child whose genome is untouched from position 0 on
/// reports this as its first-dirty index (min() with genome length makes it a
/// safe universal upper bound).
inline constexpr std::size_t kCleanGenome =
    std::numeric_limits<std::size_t>::max();

/// Reusable buffers for allocation-free crossover (one per breeding thread).
struct CrossoverScratch {
  std::vector<std::size_t> match_buffer;
};

/// A writable gene lane of the struct-of-arrays genome pool
/// (core/genome_pool.hpp): `data`/`capacity` locate the slot's contiguous
/// storage, `size` is the genome length the writer produced. Children are
/// spliced with two flat copies and truncated to min(max_length, capacity);
/// the engine sizes capacity to GaConfig::max_length.
struct GeneLane {
  Gene* data = nullptr;
  std::size_t capacity = 0;
  std::size_t size = 0;
};

namespace detail {

/// Cut points drawn for a one-point crossover; ok=false means the operator
/// declined (degenerate parents or no state match).
struct CutPoints {
  std::size_t c1 = 0;
  std::size_t c2 = 0;
  bool ok = false;
};

/// The cut-point draws of random one-point crossover. Cut points
/// range over [0, len] — boundary cuts let one child inherit a whole parent
/// plus a prefix, the mechanism that lets genome lengths grow. Degenerate
/// cuts that would produce an empty child are resampled (8 attempts).
inline CutPoints pick_random_cuts(std::size_t a_len, std::size_t b_len,
                                  util::Rng& rng) {
  if (a_len == 0 || b_len == 0) return {};
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto c1 = static_cast<std::size_t>(rng.below(a_len + 1));
    const auto c2 = static_cast<std::size_t>(rng.below(b_len + 1));
    const bool child1_empty = c1 == 0 && c2 == b_len;
    const bool child2_empty = c2 == 0 && c1 == a_len;
    if (!child1_empty && !child2_empty) return {c1, c2, true};
  }
  return {};
}

/// The cut-point draws of state-aware crossover: picks c1 on `a`, then
/// restricts c2 to positions of `b` whose trajectory key matches a's key at
/// c1 (`keys_a` / `keys_b` are the parents' per-position match keys: state
/// hashes for kExactState, valid-op signatures for kValidOps — see
/// Evaluation) and chooses one match uniformly. ok=false when a parent is too
/// short or no matching point exists. On return `match_buffer` holds the
/// matching c2 positions in ascending order (untouched when a parent is too
/// short or undecoded).
///
/// The match scan is branch-free: every position is written to the buffer
/// and the cursor advances by the key comparison, so the scan does not
/// mispredict on key trajectories where matches are frequent and irregular
/// (valid-op signatures on Hanoi). The excluded cut (c1 == a_len, c2 == 0,
/// which would leave child 2 empty) is left out by starting the scan at 1.
inline CutPoints pick_state_aware_cuts(std::size_t a_len,
                                       const std::vector<std::uint64_t>& keys_a,
                                       std::size_t b_len,
                                       const std::vector<std::uint64_t>& keys_b,
                                       util::Rng& rng,
                                       std::vector<std::size_t>& match_buffer) {
  if (a_len < 2 || b_len < 2) return {};
  // States are only known along the decoded prefix of each genome. Cut
  // positions range over [0, decoded]: boundary matches (e.g. the donated
  // tail being all of b, spliced where a's trajectory matches b's start) are
  // the growth mechanism, exactly as in random one-point crossover.
  const std::size_t decoded_a = keys_a.empty() ? 0 : keys_a.size() - 1;
  const std::size_t decoded_b = keys_b.empty() ? 0 : keys_b.size() - 1;
  const std::size_t hi_a = std::min(a_len, decoded_a);
  const std::size_t hi_b = std::min(b_len, decoded_b);
  if (hi_a < 1 || hi_b < 1) return {};

  const std::size_t c1 = 1 + static_cast<std::size_t>(rng.below(hi_a));
  const std::uint64_t want = keys_a[c1];
  match_buffer.resize(hi_b + 1);
  std::size_t* const out = match_buffer.data();
  const std::uint64_t* const keys = keys_b.data();
  std::size_t n = 0;
  for (std::size_t c2 = c1 == a_len ? 1 : 0; c2 <= hi_b; ++c2) {
    out[n] = c2;
    n += static_cast<std::size_t>(keys[c2] == want);
  }
  match_buffer.resize(n);
  if (n == 0) return {};
  const std::size_t c2 = out[static_cast<std::size_t>(rng.below(n))];
  return {c1, c2, true};
}

/// Assembles one child a[0..c1) + b[c2..) into a pool lane with two
/// contiguous copies, truncated to min(max_length, lane capacity).
inline void splice_lane(std::span<const Gene> a, std::span<const Gene> b,
                        std::size_t c1, std::size_t c2, std::size_t max_length,
                        GeneLane& out) {
  const std::size_t cap = std::min(max_length, out.capacity);
  const std::size_t head = std::min(c1, cap);
  std::copy_n(a.data(), head, out.data);
  const std::size_t tail = std::min(b.size() - c2, cap - head);
  std::copy_n(b.data() + c2, tail, out.data + head);
  out.size = head + tail;
}

}  // namespace detail

/// Uniform crossover over the shared prefix, in place. dirty_a / dirty_b
/// report the first gene actually exchanged on each side (kCleanGenome when
/// the coin flips exchanged nothing).
inline bool crossover_uniform_spans(std::span<Gene> a, std::span<Gene> b,
                                    util::Rng& rng, std::size_t& dirty_a,
                                    std::size_t& dirty_b) {
  dirty_a = dirty_b = kCleanGenome;
  const std::size_t n = std::min(a.size(), b.size());
  if (n == 0) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.5)) {
      std::swap(a[i], b[i]);
      if (dirty_a == kCleanGenome) dirty_a = dirty_b = i;
    }
  }
  return true;
}

/// Dispatches on the configured mechanism over read-only parent genomes,
/// splicing the children straight into `out1` / `out2` with flat copies;
/// updates `stats` and reports each child's first modified gene index.
/// Returns false when no children were produced (too-short parents, no state
/// match) — the outputs are then unspecified and the caller keeps/copies the
/// parents itself. `keys_a` / `keys_b` are the parents' state-match key
/// trajectories; pass empty vectors when unavailable (state-aware then
/// degrades exactly as with unevaluated parents).
inline bool crossover_lanes_into(const GaConfig& cfg, std::span<const Gene> a,
                                 const std::vector<std::uint64_t>& keys_a,
                                 std::span<const Gene> b,
                                 const std::vector<std::uint64_t>& keys_b,
                                 util::Rng& rng, CrossoverStats& stats,
                                 CrossoverScratch& scr, GeneLane& out1,
                                 GeneLane& out2, std::size_t& dirty_a,
                                 std::size_t& dirty_b) {
  ++stats.pairs;
  dirty_a = dirty_b = kCleanGenome;
  const auto splice_both = [&](const detail::CutPoints& cut) {
    detail::splice_lane(a, b, cut.c1, cut.c2, cfg.max_length, out1);
    detail::splice_lane(b, a, cut.c2, cut.c1, cfg.max_length, out2);
    dirty_a = cut.c1;
    dirty_b = cut.c2;
  };
  switch (cfg.crossover) {
    case CrossoverKind::kRandom: {
      const detail::CutPoints cut =
          detail::pick_random_cuts(a.size(), b.size(), rng);
      if (cut.ok) {
        splice_both(cut);
        ++stats.random_done;
        return true;
      }
      ++stats.too_short;
      return false;
    }
    case CrossoverKind::kStateAware: {
      const detail::CutPoints cut = detail::pick_state_aware_cuts(
          a.size(), keys_a, b.size(), keys_b, rng, scr.match_buffer);
      if (cut.ok) {
        splice_both(cut);
        ++stats.state_aware_done;
        return true;
      }
      ++stats.no_match;
      return false;
    }
    case CrossoverKind::kMixed: {
      const detail::CutPoints sa = detail::pick_state_aware_cuts(
          a.size(), keys_a, b.size(), keys_b, rng, scr.match_buffer);
      if (sa.ok) {
        splice_both(sa);
        ++stats.state_aware_done;
        return true;
      }
      const detail::CutPoints cut =
          detail::pick_random_cuts(a.size(), b.size(), rng);
      if (cut.ok) {
        splice_both(cut);
        ++stats.random_done;
        return true;
      }
      ++stats.too_short;
      return false;
    }
    case CrossoverKind::kUniform: {
      // Uniform exchanges genes in place over the shared prefix, so the
      // children start as parent copies either way.
      const std::size_t na = std::min(a.size(), out1.capacity);
      const std::size_t nb = std::min(b.size(), out2.capacity);
      std::copy_n(a.data(), na, out1.data);
      std::copy_n(b.data(), nb, out2.data);
      out1.size = na;
      out2.size = nb;
      if (crossover_uniform_spans(std::span<Gene>(out1.data, out1.size),
                                  std::span<Gene>(out2.data, out2.size), rng,
                                  dirty_a, dirty_b)) {
        ++stats.uniform_done;
      } else {
        ++stats.too_short;
      }
      return true;
    }
  }
  return false;
}

namespace detail {

/// Match-key trajectory an evaluation offers for `match` (state hashes for
/// exact-state matching, valid-op signatures otherwise).
template <typename State>
const std::vector<std::uint64_t>& match_keys(const Evaluation<State>& ev,
                                             StateMatchKind match) {
  return match == StateMatchKind::kExactState ? ev.state_hashes
                                              : ev.op_signatures;
}

}  // namespace detail

}  // namespace gaplan::ga
