// Genome decoding — the paper's indirect encoding (§3.1) and the direct
// integer encoding of its preliminary implementation (§3.3), kept for the
// ablation benches.
//
// Indirect: gene g in a state with m valid operations selects the ⌊g·m⌋-th
// operation of the canonical valid-operation list, so *every* gene maps to a
// valid operation and the match fitness is identically 1.
//
// Direct: gene g selects global operation ⌊g·|O|⌋; if it is inapplicable the
// system "stays at the current state" (Eq. 1's match-fitness denominator
// counts it as a mismatch).
//
// The indirect decoder is the planner's hot kernel. It has one core — a
// resume head (indirect_resume_head), an ops-identical fast-forward
// (indirect_fast_forward), a scalar decode loop (indirect_decode_loop) and a
// finish (indirect_decode_finish) — templated on where a state's valid-op set
// and its crossover signature come from:
//   * ProblemOps — the problem's valid_ops, through the EvalContext's
//                  transposition cache when enabled, hashed by ops_signature;
//   * LutOps     — a SIMD kernel's packed-ops LUT, with the signature looked
//                  up in KernelBatchDecoder's per-LUT-slot table.
// Entry points:
//   * decode_indirect        — by-value API (tests, one-off decodes)
//   * decode_indirect_into   — cold decode into a recycled Evaluation
//   * decode_indirect_resume — incremental re-decode: restart from the
//                              checkpointed state nearest the first gene that
//                              crossover/mutation changed, bit-identical to a
//                              cold decode of the same genome
//   * KernelBatchDecoder::run — a whole generation in one pass of sorted
//                              8-lane groups, over LutOps on a domain with a
//                              kernel and over ProblemOps on every other
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/eval_cache.hpp"
#include "core/individual.hpp"
#include "core/problem.hpp"
#include "obs/metrics.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gaplan::ga {

struct DecodeOptions {
  /// Truncate the plan at the first goal-satisfying prefix (DESIGN.md).
  bool truncate_at_goal = true;
  /// Record per-position state hashes (needed by state-aware crossover; can
  /// be disabled for pure search baselines).
  bool record_hashes = true;
  /// Record a state checkpoint every this many applied operations (0 = none).
  /// Checkpoints are what decode_indirect_resume restarts from, so resuming
  /// costs O(stride) state replay instead of O(prefix).
  std::size_t checkpoint_stride = 0;
};

/// Maps a gene to an index in [0, m). m must be > 0.
inline std::size_t gene_to_index(Gene g, std::size_t m) noexcept {
  const auto idx = static_cast<std::size_t>(g * static_cast<double>(m));
  return std::min(idx, m - 1);
}

/// Hash of an ordered valid-operation list — the state-match key for the
/// default (valid-ops) state-aware crossover.
inline std::uint64_t ops_signature(std::span<const int> ops) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ ops.size();
  for (const int op : ops) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(op));
    h *= 0x100000001B3ULL;
  }
  return h;
}

namespace detail {

/// Per-decode work tally, flushed to the metrics registry once per decode
/// (obs counters are cheap, but one inc per decode beats one per gene, and
/// one per prepare range beats up to four per resumed slot).
struct DecodeTally {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t ops_decoded = 0;
  /// 8-lane AVX-512 decode steps; ops_decoded / (8 * simd_steps) is the
  /// vector path's lane occupancy.
  std::uint64_t simd_steps = 0;
  /// indirect_resume_head's outcomes: gene positions whose re-decode was
  /// skipped, whole-evaluation reuses, checkpoint resumes, and the genes the
  /// fast-forward jumped over.
  std::uint64_t resume_genes_skipped = 0;
  std::uint64_t reuse_whole = 0;
  std::uint64_t resume_partial = 0;
  std::uint64_t ff_genes_skipped = 0;

  void flush() const noexcept {
    static obs::Counter& c_hits = obs::counter("eval.cache_hits");
    static obs::Counter& c_misses = obs::counter("eval.cache_misses");
    static obs::Counter& c_ops = obs::counter("eval.ops_decoded");
    static obs::Counter& c_steps = obs::counter("eval.simd_steps");
    static obs::Counter& c_resumed = obs::counter("eval.resume_genes_skipped");
    static obs::Counter& c_whole = obs::counter("eval.reuse_whole");
    static obs::Counter& c_partial = obs::counter("eval.resume_partial");
    static obs::Counter& c_ff = obs::counter("eval.ff_genes_skipped");
    if (cache_hits) c_hits.inc(cache_hits);
    if (cache_misses) c_misses.inc(cache_misses);
    if (ops_decoded) c_ops.inc(ops_decoded);
    if (simd_steps) c_steps.inc(simd_steps);
    if (resume_genes_skipped) c_resumed.inc(resume_genes_skipped);
    if (reuse_whole) c_whole.inc(reuse_whole);
    if (resume_partial) c_partial.inc(resume_partial);
    if (ff_genes_skipped) c_ff.inc(ff_genes_skipped);
  }
};

/// Which trajectory columns a decode records. Decodes over ProblemOps record
/// both iff DecodeOptions::record_hashes (the state hash doubles as the ops
/// cache key); KernelBatchDecoder's LutOps lanes drop the state hashes when
/// nothing reads them (only exact-state matching does).
struct Recording {
  bool hashes = true;  ///< Evaluation::state_hashes
  bool sigs = true;    ///< Evaluation::op_signatures
};

/// Passed as a state's hash when it is not known yet.
inline constexpr std::uint64_t kHashUnknown = ~std::uint64_t{0};

/// Op source over the problem itself: valid_ops through the transposition
/// cache when one is supplied. resolve()'s `hash` is the state's hash when
/// already known (it is only computed if the cache needs it); the returned
/// ops view stays valid until the next call, and its `sig` is
/// ops_signature(ops), memoized in the cache so hits skip the hash loop — it
/// is only computed when `want_sig` is set or the entry is cached.
template <PlanningProblem P>
struct ProblemOps {
  using State = typename P::StateT;

  struct Resolved {
    std::span<const int> ops;
    std::uint64_t sig;
    std::size_t size() const noexcept { return ops.size(); }
    int op(std::size_t idx) const noexcept { return ops[idx]; }
  };

  const P& problem;
  std::vector<int>& scratch;
  OpsCache<State>* cache;

  Resolved resolve(const State& s, std::uint64_t hash, bool want_sig,
                   DecodeTally& tally) const {
    if (cache != nullptr && cache->enabled()) {
      const std::uint64_t h = hash == kHashUnknown ? problem.hash(s) : hash;
      if (const auto* hit = cache->find(h, s)) {
        ++tally.cache_hits;
        return {hit->ops(), hit->sig};
      }
      problem.valid_ops(s, scratch);
      ++tally.cache_misses;
      const auto* e = cache->insert(h, s, scratch, ops_signature(scratch));
      return {e->ops(), e->sig};
    }
    problem.valid_ops(s, scratch);
    return {scratch, want_sig ? ops_signature(scratch) : 0};
  }
  void apply(State& s, int op) const { problem.apply(s, op); }
  double op_cost(const State& s, int op) const {
    return problem.op_cost(s, op);
  }
  std::uint64_t hash(const State& s) const { return problem.hash(s); }
  bool is_goal(const State& s) const { return problem.is_goal(s); }
};

/// Op source over a SIMD kernel (SimdDecodable): the packed-ops LUT yields a
/// state's operation set as one 64-bit word, and `sig` — one ops_signature
/// per LUT slot — its signature, so neither is enumerated nor hashed.
template <typename K>
struct LutOps {
  struct Resolved {
    PackedOps po;
    std::uint64_t sig;
    std::size_t size() const noexcept { return po.m; }
    int op(std::size_t idx) const noexcept { return po.op(idx); }
  };

  const K& kernel;
  const std::uint64_t* sig;

  Resolved resolve(const auto& s, std::uint64_t, bool, DecodeTally&) const {
    const std::uint32_t li = kernel.lut_index(s);
    return {{kernel.lut_ops(li), kernel.lut_count(li)}, sig[li]};
  }
  void apply(auto& s, int op) const { kernel.apply(s, op); }
  double op_cost(const auto& s, int op) const { return kernel.op_cost(s, op); }
  std::uint64_t hash(const auto& s) const { return kernel.hash(s); }
  bool is_goal(const auto& s) const { return kernel.is_goal(s); }
};

/// The indirect-decode loop: consumes genes[from..) with `s` holding the
/// trajectory state at position `from` and `ev` holding a consistent prefix
/// (ops/hashes/signatures/checkpoints/plan_cost for positions < from).
template <typename Src, typename State>
void indirect_decode_loop(const Src& src, std::span<const Gene> genes,
                          std::size_t from, const DecodeOptions& opt,
                          Recording rec, DecodeTally& tally,
                          Evaluation<State>& ev, State& s) {
  // Ops-until-next-checkpoint countdown: checkpoints land where
  // ops.size() % stride == 0, and a runtime-divisor modulo per decoded op is
  // measurable on trivial domains.
  std::size_t until_ckpt = std::numeric_limits<std::size_t>::max();
  if (opt.checkpoint_stride != 0) {
    until_ckpt = opt.checkpoint_stride - from % opt.checkpoint_stride;
  }
  // The running cost stays in a register: ev's vectors may reallocate, and
  // the compiler cannot prove that leaves ev.plan_cost alone.
  double cost = ev.plan_cost;
  for (std::size_t i = from; i < genes.size(); ++i) {
    const std::uint64_t cur_hash =
        rec.hashes ? ev.state_hashes.back() : kHashUnknown;
    const auto res = src.resolve(s, cur_hash, rec.sigs, tally);
    // Signature of the state the upcoming gene decodes in (position ops()).
    // After a fast-forward divergence it is already recorded.
    if (rec.sigs && ev.op_signatures.size() <= ev.ops.size()) {
      ev.op_signatures.push_back(res.sig);
    }
    if (res.size() == 0) {  // dead end: remaining genes are inert
      ev.dead_end = true;
      break;
    }
    const int op = res.op(gene_to_index(genes[i], res.size()));
    cost += src.op_cost(s, op);
    src.apply(s, op);
    ev.ops.push_back(op);
    ++tally.ops_decoded;
    if (rec.hashes) ev.state_hashes.push_back(src.hash(s));
    if (--until_ckpt == 0) {
      ev.checkpoint_states.push_back(s);
      ev.checkpoint_costs.push_back(cost);
      until_ckpt = opt.checkpoint_stride;
    }
    if (ev.goal_index == kNoGoal && src.is_goal(s)) {
      ev.goal_index = ev.ops.size();
      if (opt.truncate_at_goal) break;
    }
  }
  ev.plan_cost = cost;
}

/// Ops-identical fast-forward for resumed decodes. Precondition: `ev` holds a
/// consistent prefix whose ops are exactly prev.ops[0..from), `s` is the
/// trajectory state at position `from`, `from` is a checkpoint boundary, and
/// opt.checkpoint_stride != 0. While that ops-identity holds, the child is
/// walking prev's own trajectory, so runs of bitwise-equal genes can be
/// skipped checkpoint-to-checkpoint by copying prev's ops/hashes/ladder —
/// prev's partial cost sums are the same additions in the same order a cold
/// decode would perform, hence bit-identical. A differing gene is decoded
/// normally; when it still selects prev's op at that position (common under
/// small valid-op sets) the identity survives and skipping resumes at the
/// next boundary. The first op that differs ends the fast-forward for good —
/// the trajectories diverge — and the caller finishes with the plain loop.
/// Returns the position decoding should continue from; sets `done` when the
/// decode terminated inside the fast-forward (goal truncation, dead end, or
/// genome exhausted) and adds the skipped gene count to `skipped`.
///
/// It runs ahead of every decode that continues on the scalar loop: the
/// per-genome decoders, and KernelBatchDecoder lanes off the vector path
/// (every ProblemOps lane, kernels without the vector hooks or whose states
/// do not fit a lane word, exact-state matching, CPUs without AVX-512).
/// KernelBatchDecoder's vector lanes skip it: between
/// jumps it decodes one gene at a time, at several times the 8-lane step's
/// per-gene cost, so letting the step decode the genes a jump would skip is
/// cheaper than finding the jumps.
template <typename Src, typename State>
std::size_t indirect_fast_forward(
    const Src& src, std::span<const Gene> genes,
    std::span<const Gene> parent_genes, std::size_t from,
    const DecodeOptions& opt, Recording rec, DecodeTally& tally,
    const Evaluation<State>& prev, Evaluation<State>& ev, State& s,
    std::size_t& skipped, bool& done) {
  const std::size_t stride = opt.checkpoint_stride;
  // Gene equality implies op equality only where prev's ops are positionally
  // 1:1 with the parent genes that produced them.
  const std::size_t scan_lim =
      std::min({genes.size(), parent_genes.size(), prev.ops.size()});
  const auto at = [](const auto& v, std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::size_t pos = from;
  while (pos < genes.size()) {
    if (pos % stride == 0 && pos < scan_lim) {
      // At a checkpoint boundary: jump over the bitwise-identical gene run.
      std::size_t d = pos;
      while (d < scan_lim && genes[d] == parent_genes[d]) ++d;
      const std::size_t kk = std::min(d / stride, prev.checkpoint_states.size());
      const std::size_t jump = kk * stride;
      if (jump > pos) {
        ev.ops.insert(ev.ops.end(), at(prev.ops, pos), at(prev.ops, jump));
        if (rec.hashes) {
          ev.state_hashes.insert(ev.state_hashes.end(),
                                 at(prev.state_hashes, pos + 1),
                                 at(prev.state_hashes, jump + 1));
        }
        if (rec.sigs) {
          ev.op_signatures.insert(ev.op_signatures.end(),
                                  at(prev.op_signatures, pos),
                                  at(prev.op_signatures, jump));
        }
        ev.checkpoint_states.insert(ev.checkpoint_states.end(),
                                    at(prev.checkpoint_states, pos / stride),
                                    at(prev.checkpoint_states, kk));
        ev.checkpoint_costs.insert(ev.checkpoint_costs.end(),
                                   at(prev.checkpoint_costs, pos / stride),
                                   at(prev.checkpoint_costs, kk));
        ev.plan_cost = prev.checkpoint_costs[kk - 1];
        s = prev.checkpoint_states[kk - 1];
        skipped += jump - pos;
        pos = jump;
        if (ev.goal_index == kNoGoal && prev.goal_index != kNoGoal &&
            prev.goal_index <= jump) {
          // With truncation prev.ops end at prev's goal, so jump == goal here
          // and `s` *is* the goal state; finish() trims nothing extra.
          ev.goal_index = prev.goal_index;
          if (opt.truncate_at_goal) {
            done = true;
            return pos;
          }
        }
        continue;  // rescan: kk may have been clamped by the ladder
      }
    }
    // Decode the next gene exactly as the plain loop would, additionally
    // checking that it still selects prev's op at this position.
    const std::uint64_t cur_hash =
        rec.hashes ? ev.state_hashes.back() : kHashUnknown;
    const auto res = src.resolve(s, cur_hash, rec.sigs, tally);
    if (rec.sigs && ev.op_signatures.size() <= ev.ops.size()) {
      ev.op_signatures.push_back(res.sig);
    }
    if (res.size() == 0) {
      ev.dead_end = true;
      done = true;
      return pos;
    }
    const int op = res.op(gene_to_index(genes[pos], res.size()));
    if (pos >= prev.ops.size() || op != prev.ops[pos]) {
      return pos;  // diverged: the plain loop re-decodes from here on
    }
    ev.plan_cost += src.op_cost(s, op);
    src.apply(s, op);
    ev.ops.push_back(op);
    ++tally.ops_decoded;
    ++pos;
    if (rec.hashes) ev.state_hashes.push_back(src.hash(s));
    if (pos % stride == 0) {
      ev.checkpoint_states.push_back(s);
      ev.checkpoint_costs.push_back(ev.plan_cost);
    }
    if (ev.goal_index == kNoGoal && src.is_goal(s)) {
      ev.goal_index = pos;
      if (opt.truncate_at_goal) {
        done = true;
        return pos;
      }
    }
  }
  done = true;  // genome exhausted inside the fast-forward
  return pos;
}

/// Where indirect_resume_head leaves a decode.
struct DecodeHead {
  enum Kind {
    kReused,  ///< ev is a copy of prev and complete: no loop, no finish
    kFinish,  ///< nothing left to decode: finish ev
    kLoop,    ///< decode genes[pos..) with the loop, then finish
  };
  Kind kind = kLoop;
  std::size_t pos = 0;
  std::size_t skipped = 0;  ///< gene positions whose re-decode was skipped
};

/// The head of every indirect decode. With a usable `prev` — an evaluation
/// (same start, same options) of `parent_genes`, whose first `first_dirty`
/// genes equal genes[0..first_dirty) — it reuses prev outright when prev's
/// decode provably terminated before the first modified gene, else restarts
/// from the checkpointed state nearest below that gene and fast-forwards
/// through later gene runs bitwise-identical to the parent's
/// (indirect_fast_forward; skipped when `parent_genes` is empty). Otherwise
/// (`prev` null or unusable, or no checkpoint below the dirty gene) it sets
/// up a cold decode from `start`. Leaves `s` at the state position `pos`
/// decodes in.
template <typename Src, typename State>
DecodeHead indirect_resume_head(const Src& src, const State& start,
                                std::span<const Gene> genes,
                                const Evaluation<State>* prev,
                                std::span<const Gene> parent_genes,
                                std::size_t first_dirty,
                                const DecodeOptions& opt, Recording rec,
                                DecodeTally& tally, Evaluation<State>& ev,
                                State& s) {
  if (prev != nullptr && prev->decoded && prev != &ev &&
      prev->checkpoint_stride == opt.checkpoint_stride &&
      (!rec.hashes || prev->state_hashes.size() == prev->ops.size() + 1) &&
      (!rec.sigs || prev->op_signatures.size() == prev->ops.size() + 1)) {
    const std::size_t dirty = std::min(first_dirty, genes.size());

    // Whole-evaluation reuse: prev's decode provably terminated at or before
    // the first modified gene, so the child decodes to the very same record.
    // (dead_end marks that the state after ops has an empty valid-op set — a
    // property of the state, so it transfers with the copy.)
    const bool goal_terminated = opt.truncate_at_goal &&
                                 prev->goal_index != kNoGoal &&
                                 prev->goal_index <= dirty;
    const bool dead_terminated = prev->dead_end && prev->ops.size() <= dirty;
    const bool genome_unchanged =
        prev->ops.size() == genes.size() && dirty >= genes.size();
    if (goal_terminated || dead_terminated || genome_unchanged) {
      ev = *prev;  // copy-assign recycles ev's buffers
      tally.resume_genes_skipped += genes.size();
      ++tally.reuse_whole;
      return {DecodeHead::kReused, 0, genes.size()};
    }

    const std::size_t stride = opt.checkpoint_stride;
    const std::size_t limit = std::min(dirty, prev->ops.size());
    std::size_t k = stride == 0 ? 0 : limit / stride;
    k = std::min(k, prev->checkpoint_states.size());
    const std::size_t resume_at = k * stride;
    if (resume_at != 0) {
      const auto upto = [](const auto& v, std::size_t n) {
        return v.begin() + static_cast<std::ptrdiff_t>(n);
      };
      ev.reset();
      ev.match_fit = 1.0;
      ev.ops.reserve(genes.size());
      ev.ops.assign(prev->ops.begin(), upto(prev->ops, resume_at));
      if (rec.hashes) {
        ev.state_hashes.reserve(genes.size() + 1);
        ev.state_hashes.assign(prev->state_hashes.begin(),
                               upto(prev->state_hashes, resume_at + 1));
      }
      if (rec.sigs) {
        ev.op_signatures.reserve(genes.size() + 1);
        ev.op_signatures.assign(prev->op_signatures.begin(),
                                upto(prev->op_signatures, resume_at));
      }
      ev.checkpoint_states.assign(prev->checkpoint_states.begin(),
                                  upto(prev->checkpoint_states, k));
      ev.checkpoint_costs.assign(prev->checkpoint_costs.begin(),
                                 upto(prev->checkpoint_costs, k));
      ev.plan_cost = prev->checkpoint_costs[k - 1];
      // Goal sightings inside the kept prefix transfer; later ones are
      // re-discovered by the loop. (With truncate_at_goal, a goal at or below
      // the resume point was already handled by the whole-reuse branch.)
      if (prev->goal_index != kNoGoal && prev->goal_index <= resume_at) {
        ev.goal_index = prev->goal_index;
      }
      s = prev->checkpoint_states[k - 1];
      ++tally.resume_partial;
      std::size_t ff_skipped = 0;
      bool done = false;
      std::size_t pos = resume_at;
      if (!parent_genes.empty()) {
        pos = indirect_fast_forward(src, genes, parent_genes, resume_at, opt,
                                    rec, tally, *prev, ev, s, ff_skipped,
                                    done);
      }
      tally.resume_genes_skipped += resume_at + ff_skipped;
      tally.ff_genes_skipped += ff_skipped;
      return {done || pos >= genes.size() ? DecodeHead::kFinish
                                          : DecodeHead::kLoop,
              pos, resume_at + ff_skipped};
    }
  }

  // Cold decode (recycled: reset() keeps capacity).
  ev.reset();
  ev.match_fit = 1.0;  // indirect encoding: all operations valid by construction
  ev.ops.reserve(genes.size());
  if (rec.hashes) ev.state_hashes.reserve(genes.size() + 1);
  if (rec.sigs) ev.op_signatures.reserve(genes.size() + 1);
  s = start;
  if (rec.hashes) ev.state_hashes.push_back(src.hash(s));
  bool done = genes.empty();
  if (src.is_goal(s)) {
    ev.goal_index = 0;
    done = done || opt.truncate_at_goal;
  }
  return {done ? DecodeHead::kFinish : DecodeHead::kLoop, 0, 0};
}

/// Post-loop bookkeeping: goal truncation, signature-trajectory closure,
/// final state.
template <typename Src, typename State>
void indirect_decode_finish(const Src& src, const DecodeOptions& opt,
                            Recording rec, DecodeTally& tally,
                            Evaluation<State>& ev, State& s) {
  if (opt.truncate_at_goal && ev.goal_index != kNoGoal) {
    ev.valid = true;
    ev.ops.resize(ev.goal_index);
    if (rec.hashes) ev.state_hashes.resize(ev.goal_index + 1);
    if (opt.checkpoint_stride != 0) {
      const std::size_t keep = ev.goal_index / opt.checkpoint_stride;
      if (ev.checkpoint_states.size() > keep) {
        ev.checkpoint_states.resize(keep);
        ev.checkpoint_costs.resize(keep);
      }
    }
  } else {
    ev.valid = src.is_goal(s);
  }
  // Close the signature trajectory: one signature per position, the final
  // state's capping the vector, so state_hashes and op_signatures always
  // index the same positions.
  if (rec.sigs) {
    const std::size_t want = ev.ops.size() + 1;
    if (ev.op_signatures.size() > want) ev.op_signatures.resize(want);
    while (ev.op_signatures.size() < want) {
      const std::uint64_t h =
          rec.hashes ? ev.state_hashes.back() : kHashUnknown;
      ev.op_signatures.push_back(src.resolve(s, h, true, tally).sig);
    }
  }
  ev.effective_length = ev.ops.size();
  ev.checkpoint_stride = opt.checkpoint_stride;
  ev.final_state = std::move(s);
  ev.decoded = true;
}

/// One whole indirect decode over `src`: head, loop, finish. `prev` may be
/// null (cold decode). Returns the number of gene positions whose re-decode
/// was skipped.
template <typename Src, typename State>
std::size_t indirect_decode(const Src& src, const State& start,
                            std::span<const Gene> genes,
                            const DecodeOptions& opt,
                            const std::type_identity_t<Evaluation<State>>* prev,
                            std::span<const Gene> parent_genes,
                            std::size_t first_dirty, Evaluation<State>& ev) {
  const Recording rec{opt.record_hashes, opt.record_hashes};
  DecodeTally tally;
  State s{};
  const DecodeHead head =
      indirect_resume_head(src, start, genes, prev, parent_genes, first_dirty,
                           opt, rec, tally, ev, s);
  if (head.kind == DecodeHead::kReused) {
    tally.flush();  // the reuse's own resume counters
    return head.skipped;
  }
  if (head.kind == DecodeHead::kLoop) {
    indirect_decode_loop(src, genes, head.pos, opt, rec, tally, ev, s);
  }
  indirect_decode_finish(src, opt, rec, tally, ev, s);
  tally.flush();
  return head.skipped;
}

}  // namespace detail

/// Decodes `genes` from `start` using the indirect encoding. `scratch` is a
/// reusable valid-operation buffer (avoids per-gene allocation).
template <PlanningProblem P>
Evaluation<typename P::StateT> decode_indirect(const P& problem,
                                               const typename P::StateT& start,
                                               std::span<const Gene> genes,
                                               const DecodeOptions& opt,
                                               std::vector<int>& scratch) {
  Evaluation<typename P::StateT> ev;
  detail::indirect_decode(detail::ProblemOps<P>{problem, scratch, nullptr},
                          start, genes, opt, nullptr, {}, 0, ev);
  return ev;
}

/// Cold decode into a recycled Evaluation, using the context's valid-ops
/// transposition cache when it is enabled (EvalContext::sync sizes it).
template <PlanningProblem P>
void decode_indirect_into(const P& problem, const typename P::StateT& start,
                          std::span<const Gene> genes, const DecodeOptions& opt,
                          EvalContext<typename P::StateT>& ctx,
                          Evaluation<typename P::StateT>& ev) {
  detail::indirect_decode(
      detail::ProblemOps<P>{problem, ctx.scratch,
                            ctx.cache.enabled() ? &ctx.cache : nullptr},
      start, genes, opt, nullptr, {}, 0, ev);
}

/// Incremental re-decode. `prev` must be an evaluation (same problem, same
/// `start`, same options) of the genome `parent_genes`, whose first
/// `first_dirty` genes equal genes[0..first_dirty); crossover and mutation
/// report that index. The decode restarts from the checkpointed state nearest
/// below the dirty gene — or reuses `prev` outright when it provably
/// terminated before it — then fast-forwards through any later gene runs
/// that are bitwise-identical to the parent's for as long as the decoded ops
/// match prev's (indirect_fast_forward), and produces results bit-identical
/// to a cold decode of `genes`. `parent_genes` may be empty (no fast-forward,
/// resume only). Falls back to a cold decode whenever `prev` cannot seed a
/// resume. Returns the number of gene positions whose re-decode was skipped.
template <PlanningProblem P>
std::size_t decode_indirect_resume(const P& problem,
                                   const typename P::StateT& start,
                                   std::span<const Gene> genes,
                                   const DecodeOptions& opt,
                                   EvalContext<typename P::StateT>& ctx,
                                   const Evaluation<typename P::StateT>& prev,
                                   std::span<const Gene> parent_genes,
                                   std::size_t first_dirty,
                                   Evaluation<typename P::StateT>& ev) {
  return detail::indirect_decode(
      detail::ProblemOps<P>{problem, ctx.scratch,
                            ctx.cache.enabled() ? &ctx.cache : nullptr},
      start, genes, opt, &prev, parent_genes, first_dirty, ev);
}

namespace detail {

/// One individual's decode request inside a KernelBatchDecoder pass, on any
/// domain. `prev == nullptr` forces a cold decode; otherwise the slot
/// resumes from `prev` through decode_indirect_resume's resume head.
/// `parent_genes` feeds that head's fast-forward only when the lane decodes
/// on the scalar loop; a vector lane restarts at its checkpoint and the
/// 8-lane step decodes the rest (see KernelBatchDecoder::vector_lanes).
template <typename State>
struct KernelSlot {
  std::span<const Gene> genes;
  const Evaluation<State>* prev = nullptr;
  std::span<const Gene> parent_genes;
  std::size_t first_dirty = 0;
  Evaluation<State>* ev = nullptr;
};

/// A slot after KernelBatchDecoder's prepare step: the trajectory state at
/// gene `pos`, where the decode loop takes over. `slot` is null when the
/// resume head already completed the slot (whole reuse, goal at the start
/// state, or — on scalar-loop lanes only — fast-forward to the end).
template <typename State>
struct KernelLane {
  State s{};
  std::size_t pos = 0;
  KernelSlot<State>* slot = nullptr;

  std::size_t remaining() const noexcept { return slot->genes.size() - pos; }
};

/// Caller-owned scratch of a KernelBatchDecoder pass, reused across passes so
/// a steady-state pass allocates nothing: `prepared` holds one lane per slot
/// after the prepare step, `lanes` the ones still decoding in decode order
/// (order_longest_first), and `counts` that ordering's key histogram.
template <typename State>
struct KernelScratch {
  std::vector<KernelLane<State>> prepared;
  std::vector<KernelLane<State>> lanes;
  std::vector<std::uint32_t> counts;
};

/// Moves the prepared lanes still decoding (non-null slot) to `out`,
/// longest remaining() first: a counting sort on remaining(), which the
/// genome length bounds. Ties keep their order in `prepared`. One pass
/// counts and one places each lane record once, where a comparison sort
/// moved the records O(n log n) times; a lane's state is moved, not copied,
/// so a heap-backed state (WorkflowProblem's bitset) allocates nothing here.
template <typename State>
void order_longest_first(std::span<KernelLane<State>> prepared,
                         std::vector<KernelLane<State>>& out,
                         std::vector<std::uint32_t>& counts) {
  counts.clear();
  std::size_t live = 0;
  for (const KernelLane<State>& ln : prepared) {
    if (ln.slot == nullptr) continue;
    const std::size_t r = ln.remaining();
    if (r >= counts.size()) counts.resize(r + 1);
    ++counts[r];
    ++live;
  }
  // Longest key first: counts[r] becomes the first output index of key r.
  std::uint32_t at = 0;
  for (std::size_t r = counts.size(); r-- > 0;) {
    const std::uint32_t c = counts[r];
    counts[r] = at;
    at += c;
  }
  out.resize(live);
  for (KernelLane<State>& ln : prepared) {
    if (ln.slot != nullptr) out[counts[ln.remaining()]++] = std::move(ln);
  }
}

/// What KernelBatchDecoder<P> decodes over: P's SIMD kernel (through LutOps)
/// when it has one, else the problem itself (through ProblemOps).
template <typename P>
auto decode_source(const P& problem) {
  if constexpr (SimdDecodable<P>) {
    return problem.simd_kernel();
  } else {
    return &problem;
  }
}

}  // namespace detail

/// The population-wide decoder: PhaseRunner's one evaluation pass, on every
/// domain. It decodes over detail::LutOps where the domain has a SIMD kernel
/// (see SimdDecodable in problem.hpp): the kernel's packed-ops LUT yields
/// the operation set as one 64-bit word, and `sig_` — built once per decoder
/// from the same LUT — yields the matching ops_signature, where ProblemOps
/// re-enumerates valid operations into a scratch vector and re-hashes them
/// per decoded gene. Every other domain decodes over detail::ProblemOps,
/// through the calling thread's context() and its valid-ops cache.
///
/// run() takes a whole generation in one pass: it runs every slot through
/// the shared resume head, orders the slots still decoding
/// longest-remaining-first once, and decodes them in kGroup-lane groups — 8
/// individuals per AVX-512 instruction on kernels with vector hooks, else
/// lane by lane on the shared decode loop. A vector group runs until its
/// longest lane finishes, so sorting the whole population (not a handful of
/// slots) is what keeps the lanes busy; eval.simd_steps counts the vector
/// steps. Vector lanes resume without the fast-forward, so they decode more
/// ops than the per-genome decoders would, each far cheaper; lanes on the
/// shared loop fast-forward as the per-genome decoders do. Every lane
/// retires through the shared finish, and the per-lane decode order never
/// depends on the grouping or thread count, so the Evaluations match the
/// per-genome decoders exactly. eval.prepare_ms, eval.order_ms and
/// eval.group_decode_ms time the prepare, order and group-decode steps once
/// per run().
template <PlanningProblem P>
class KernelBatchDecoder {
 public:
  using State = typename P::StateT;
  /// P's kernel, or a pointer to the problem (detail::decode_source).
  using SourceT = decltype(detail::decode_source(std::declval<const P&>()));

  /// Lanes per decode group: one zmm of uint64 lanes, and the unit the
  /// thread pool deals out.
  static constexpr std::size_t kGroup = 8;

  /// `need_state_hashes` — whether anything downstream reads
  /// Evaluation::state_hashes (only exact-state crossover matching does; see
  /// detail::match_keys). ProblemOps lanes compute the state hash per gene
  /// regardless, because it doubles as the ops-cache key, and record it iff
  /// opt.record_hashes; the LUT has no cache to key, so when the hashes are
  /// unread LutOps lanes skip both the hash computation and the push — the
  /// decoded trajectory (ops, signatures, checkpoint ladder, costs) is
  /// unaffected. `cache_entries` sizes each thread's valid-ops cache
  /// (context()); 0 disables it.
  KernelBatchDecoder(const P& problem, const DecodeOptions& opt,
                     bool need_state_hashes = true,
                     std::size_t cache_entries = 0)
      : src_(detail::decode_source(problem)),
        opt_(opt),
        rec_{opt.record_hashes && (need_state_hashes || !SimdDecodable<P>),
             opt.record_hashes},
        cache_entries_(cache_entries) {
    if constexpr (SimdDecodable<P>) {
      // Precompute ops_signature per LUT slot: ProblemOps hashes the valid-op
      // list at every decoded gene; here it is one indexed load. The
      // packed-ops and count columns are copied out as uint64 tables
      // alongside so the vector path can fetch all three with 64-bit gathers.
      sig_.resize(src_.lut_size());
      vops_.resize(sig_.size());
      vcnt_.resize(sig_.size());
      std::vector<int> ops;
      for (std::size_t i = 0; i < sig_.size(); ++i) {
        const std::uint32_t slot = static_cast<std::uint32_t>(i);
        const PackedOps po{src_.lut_ops(slot), src_.lut_count(slot)};
        ops.clear();
        for (std::uint32_t j = 0; j < po.m; ++j) ops.push_back(po.op(j));
        sig_[i] = ops_signature(ops);
        vops_[i] = po.packed;
        vcnt_[i] = po.m;
        // One-time audit of the kernel's popcount claim (see
        // kLutCountIsPopcount): a lying trait would silently desync the
        // vector path's op selection from the scalar decoder.
        if constexpr (requires { requires SourceT::kLutCountIsPopcount; }) {
          assert(vcnt_[i] == static_cast<std::uint64_t>(std::popcount(i)));
        }
      }
    }
  }

  /// The calling thread's EvalContext, tagged with this decoder, so a
  /// decoder (PhaseRunner builds one per phase) never reads cache entries
  /// another filled: the valid-ops cache of its ProblemOps lanes, and the
  /// one the runner's per-genome evaluations (crowding, the direct
  /// encoding) share with the pass.
  EvalContext<State>& context() const {
    thread_local EvalContext<State> ctx;
    ctx.sync(this, epoch_, cache_entries_);
    return ctx;
  }

  /// Decodes every slot from `start` in one pass, through caller-owned
  /// `scratch`. With a `pool` of more than one worker, prepare is split over
  /// the slots and the ordered groups are dealt to the workers one at a
  /// time, longest first, so no worker trails another by more than one
  /// group. Thread-safe for disjoint slots and scratch.
  void run(const State& start, std::span<detail::KernelSlot<State>> slots,
           detail::KernelScratch<State>& scratch,
           util::ThreadPool* pool) const {
    const std::size_t n = slots.size();
    const bool pooled = pool != nullptr && pool->thread_count() > 1;
    util::Timer timer;
    std::vector<detail::KernelLane<State>>& prepared = scratch.prepared;
    prepared.resize(n);
    // Vector lanes resume at their checkpoint without the fast-forward (see
    // indirect_fast_forward for why).
    const bool fast_forward = !vector_lanes();
    const auto prepare_range = [&](std::size_t lo, std::size_t hi) {
      detail::DecodeTally tally;
      const auto src = ops();
      for (std::size_t i = lo; i < hi; ++i) {
        detail::KernelSlot<State>& sl = slots[i];
        detail::KernelLane<State>& ln = prepared[i];
        const detail::DecodeHead head = detail::indirect_resume_head(
            src, start, sl.genes, sl.prev,
            fast_forward ? sl.parent_genes : std::span<const Gene>{},
            sl.first_dirty, opt_, rec_, tally, *sl.ev, ln.s);
        ln.pos = head.pos;
        ln.slot = head.kind == detail::DecodeHead::kLoop ? &sl : nullptr;
        if (head.kind == detail::DecodeHead::kFinish) {
          detail::indirect_decode_finish(src, opt_, rec_, tally, *sl.ev,
                                         ln.s);
        }
      }
      tally.flush();
    };
    if (pooled) {
      pool->parallel_for_ranges(
          0, n, prepare_range,
          util::ThreadPool::grain_for(n, pool->thread_count()));
    } else {
      prepare_range(0, n);
    }
    static obs::Histogram& h_prepare =
        obs::histogram("eval.prepare_ms", obs::latency_buckets_ms());
    static obs::Histogram& h_order =
        obs::histogram("eval.order_ms", obs::latency_buckets_ms());
    static obs::Histogram& h_decode =
        obs::histogram("eval.group_decode_ms", obs::latency_buckets_ms());
    h_prepare.observe(timer.millis());

    timer.reset();
    std::vector<detail::KernelLane<State>>& lanes = scratch.lanes;
    detail::order_longest_first<State>(prepared, lanes, scratch.counts);
    h_order.observe(timer.millis());

    timer.reset();
    const auto decode = [&](std::size_t lo, std::size_t hi) {
      detail::DecodeTally tally;
      decode_lanes(std::span(lanes).subspan(lo, hi - lo), tally);
      tally.flush();
    };
    if (pooled) {
      pool->parallel_deal((lanes.size() + kGroup - 1) / kGroup,
                          [&](std::size_t g) {
                            decode(g * kGroup,
                                   std::min(lanes.size(), (g + 1) * kGroup));
                          });
    } else {
      decode(0, lanes.size());
    }
    h_decode.observe(timer.millis());
    static obs::Counter& c_batches = obs::counter("eval.batches");
    static obs::Counter& c_lanes = obs::counter("eval.simd_lanes_used");
    c_batches.inc();
    c_lanes.inc(n);
  }

  /// Serial run() with scratch of its own, for one-off decodes.
  void run(const State& start,
           std::span<detail::KernelSlot<State>> slots) const {
    detail::KernelScratch<State> scratch;
    run(start, slots, scratch, nullptr);
  }

 private:
#if GAPLAN_AVX512_DECODE
  /// A kernel whose state is not one 64-bit word packs it into one lane word
  /// through to_word/from_word (from_word rebuilds any derived fields);
  /// word_lanes() says at run time whether this instance's states fit (see
  /// TileKernel).
  static constexpr bool kWordCodec =
      requires(const SourceT& k, const State& s, std::uint64_t w) {
        { k.to_word(s) } -> std::same_as<std::uint64_t>;
        { k.from_word(w) } -> std::same_as<State>;
        { k.word_lanes() } -> std::same_as<bool>;
      };

  /// A kernel opts into the 8-lane vector decode (run_vector) by exposing the
  /// three hooks lut_index8 / apply8 / is_goal8 plus the kUnitOpCost trait
  /// (see HanoiKernel), for states that are one trivially-copyable 64-bit
  /// word — the lane payload is the raw state bit pattern — or that the
  /// kernel's lane-word codec packs into one.
  // (Expression-only checks: naming __m512i as a template argument of a
  // return-type-requirement would drop its alignment attributes and warn.)
  static constexpr bool kVectorStep =
      (kWordCodec ||
       (sizeof(State) == 8 && std::is_trivially_copyable_v<State>)) &&
      requires(const SourceT& k, __m512i v, __mmask8 lanes) {
        requires SourceT::kUnitOpCost;
        k.lut_index8(v);
        k.apply8(v, v, lanes);
        { k.is_goal8(v) } -> std::same_as<__mmask8>;
      };

  /// A state's lane word: the kernel's codec, else the raw bit pattern.
  std::uint64_t to_lane(const State& s) const noexcept {
    if constexpr (kWordCodec) {
      return src_.to_word(s);
    } else {
      return std::bit_cast<std::uint64_t>(s);
    }
  }
  State from_lane(std::uint64_t w) const noexcept {
    if constexpr (kWordCodec) {
      return src_.from_word(w);
    } else {
      return std::bit_cast<State>(w);
    }
  }
#endif

  /// The pass's op source on the calling thread.
  auto ops() const {
    if constexpr (SimdDecodable<P>) {
      return detail::LutOps<SourceT>{src_, sig_.data()};
    } else {
      EvalContext<State>& ctx = context();
      return detail::ProblemOps<P>{*src_, ctx.scratch,
                                   ctx.cache.enabled() ? &ctx.cache : nullptr};
    }
  }

  /// Whether this decoder's lanes decode on run_vector: the kernel has the
  /// vector hooks, its states fit a lane word, the CPU runs AVX-512, and no
  /// state hashes are recorded (the vector step records none, so exact-state
  /// matching stays on the shared loop). It decides both the decode path and
  /// whether the resume head fast-forwards, so a vector lane never starts
  /// with a fast-forward's signature already recorded.
  bool vector_lanes() const noexcept {
#if GAPLAN_AVX512_DECODE
    if constexpr (kVectorStep) {
      bool fits = true;
      if constexpr (kWordCodec) fits = src_.word_lanes();
      return fits && !rec_.hashes && vector_ok_;
    }
#endif
    return false;
  }

  /// Decodes sorted, prepared lanes to completion: on the vector path when
  /// vector_lanes(), else lane by lane on the shared loop, each lane's state
  /// decoded in place and moved into its Evaluation's final_state.
  void decode_lanes(std::span<detail::KernelLane<State>> lanes,
                    detail::DecodeTally& tally) const {
#if GAPLAN_AVX512_DECODE
    if constexpr (kVectorStep) {
      if (vector_lanes()) {
        if (rec_.sigs) {
          run_vector<true>(lanes, tally);
        } else {
          run_vector<false>(lanes, tally);
        }
        return;
      }
    }
#endif
    const auto src = ops();
    for (detail::KernelLane<State>& ln : lanes) {
      Evaluation<State>& ev = *ln.slot->ev;
      detail::indirect_decode_loop(src, ln.slot->genes, ln.pos, opt_, rec_,
                                   tally, ev, ln.s);
      detail::indirect_decode_finish(src, opt_, rec_, tally, ev, ln.s);
    }
  }

#if GAPLAN_AVX512_DECODE
GAPLAN_AVX512_WARNINGS_BEGIN
  static constexpr std::size_t kVL = kGroup;  ///< uint64 lanes per zmm
  static constexpr std::size_t kVChunk = 64;  ///< steps between staging flushes

  /// Data-parallel decode: 8 individuals advance one gene per iteration in
  /// AVX-512 registers. The shared loop issues every lane's scalar op stream
  /// in turn; here one instruction stream serves all 8 lanes, and the kernel
  /// hooks
  /// (lut_index8 / apply8 / is_goal8) keep the per-step state transition
  /// entirely in zmm registers. Trajectory output goes through small
  /// L1-resident staging columns — masked scatters during the chunk, one bulk
  /// append per lane per kVChunk steps — replacing the per-op push_backs.
  /// `lanes` are taken kVL at a time in their (sorted) order.
  ///
  /// Bit-identical contract: the step body performs indirect_decode_loop's
  /// operations in its order (signature push, dead-end stop, op select, unit
  /// cost add, apply, op push, checkpoint, goal test, exhaustion), with
  /// per-lane masks standing in for the scalar loop's early exits. Costs are
  /// the same 1.0-addition sequence (kUnitOpCost), so plan_cost matches
  /// bitwise. Lanes that retire mid-group (goal truncation, dead end,
  /// genome exhausted) are masked out and their registers frozen until the
  /// whole group retires through indirect_decode_finish.
  ///
  /// Only compiled for kVectorStep kernels and only entered when
  /// vector_lanes(); never records state hashes — the dispatch keeps
  /// exact-state matching on the shared loop. Its lanes were prepared
  /// without the fast-forward, so each starts with exactly `pos` signatures
  /// recorded and every staged signature is appended.
  template <bool RecordSigs>
  GAPLAN_AVX512_TARGET void run_vector(
      std::span<const detail::KernelLane<State>> lanes,
      detail::DecodeTally& tally) const {
    alignas(64) std::uint64_t sig_st[kVL][kVChunk];
    alignas(64) int op_st[kVL][kVChunk];
    alignas(64) std::uint64_t cks_st[kVL][kVChunk + 2];
    alignas(64) double ckc_st[kVL][kVChunk + 2];

    const bool truncate = opt_.truncate_at_goal;
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi64(1);
    const __m512d oned = _mm512_set1_pd(1.0);
    const __m512i stride_v =
        _mm512_set1_epi64(static_cast<long long>(opt_.checkpoint_stride));
    const __m512i lane_idx = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const std::uint64_t* const sig_tab = sig_.data();
    const std::uint64_t* const ops_tab = vops_.data();
    const std::uint64_t* const cnt_tab = vcnt_.data();
    const auto base_of = [](const void* p) {
      return static_cast<long long>(reinterpret_cast<std::uintptr_t>(p));
    };

    for (std::size_t base = 0; base < lanes.size(); base += kVL) {
      const std::size_t nb = std::min(kVL, lanes.size() - base);
      alignas(64) std::uint64_t p_a[kVL] = {};
      alignas(64) std::uint64_t pos_a[kVL] = {}, n_a[kVL] = {},
                                until_a[kVL] = {}, gaddr_a[kVL] = {},
                                opscnt_a[kVL] = {};
      alignas(64) double cost_a[kVL] = {};
      Evaluation<State>* evp[kVL] = {};
      __mmask8 gfound = 0;  ///< goal_index preset by resume: no re-detection
      for (std::size_t j = 0; j < nb; ++j) {
        const detail::KernelLane<State>& ln = lanes[base + j];
        Evaluation<State>& ev = *ln.slot->ev;
        p_a[j] = to_lane(ln.s);
        pos_a[j] = ln.pos;
        n_a[j] = ln.slot->genes.size();
        until_a[j] = opt_.checkpoint_stride != 0
                         ? opt_.checkpoint_stride -
                               ln.pos % opt_.checkpoint_stride
                         : std::numeric_limits<std::size_t>::max();
        gaddr_a[j] =
            reinterpret_cast<std::uintptr_t>(ln.slot->genes.data() + ln.pos);
        opscnt_a[j] = ev.ops.size();
        cost_a[j] = ev.plan_cost;
        evp[j] = &ev;
        assert(!RecordSigs || ev.op_signatures.size() == ln.pos);
        if (ev.goal_index != kNoGoal) {
          gfound |= static_cast<__mmask8>(1u << j);
        }
      }

      __m512i p_v = _mm512_load_epi64(p_a);
      __m512i pos_v = _mm512_load_epi64(pos_a);
      const __m512i n_v = _mm512_load_epi64(n_a);
      __m512i until_v = _mm512_load_epi64(until_a);
      __m512i gaddr_v = _mm512_load_epi64(gaddr_a);
      __m512i opscnt_v = _mm512_load_epi64(opscnt_a);
      __m512d cost_v = _mm512_load_pd(cost_a);
      __mmask8 alive = static_cast<__mmask8>((1u << nb) - 1);

      while (alive) {
        // Absolute staging cursors, one column per lane; the flush recovers
        // each lane's element count from the cursor delta.
        __m512i sig_ad = _mm512_add_epi64(
            _mm512_set1_epi64(base_of(&sig_st[0][0])),
            _mm512_mullo_epi64(lane_idx, _mm512_set1_epi64(kVChunk * 8)));
        __m512i op_ad = _mm512_add_epi64(
            _mm512_set1_epi64(base_of(&op_st[0][0])),
            _mm512_mullo_epi64(lane_idx, _mm512_set1_epi64(kVChunk * 4)));
        __m512i cks_ad = _mm512_add_epi64(
            _mm512_set1_epi64(base_of(&cks_st[0][0])),
            _mm512_mullo_epi64(lane_idx,
                               _mm512_set1_epi64((kVChunk + 2) * 8)));
        __m512i ckc_ad = _mm512_add_epi64(
            _mm512_set1_epi64(base_of(&ckc_st[0][0])),
            _mm512_mullo_epi64(lane_idx,
                               _mm512_set1_epi64((kVChunk + 2) * 8)));
        const __m512i sig_ad0 = sig_ad;
        const __m512i op_ad0 = op_ad;
        const __m512i cks_ad0 = cks_ad;

        for (std::size_t step = 0; step < kVChunk && alive; ++step) {
          ++tally.simd_steps;
          const __m512i li = src_.lut_index8(p_v);
          if constexpr (RecordSigs) {
            const __m512i sig = _mm512_i64gather_epi64(li, sig_tab, 8);
            _mm512_mask_i64scatter_epi64(nullptr, alive, sig_ad, sig, 1);
            sig_ad = _mm512_mask_add_epi64(sig_ad, alive, sig_ad,
                                           _mm512_set1_epi64(8));
          }
          __m512i m_v;
          if constexpr (requires { requires SourceT::kLutCountIsPopcount; }) {
            m_v = _mm512_popcnt_epi64(li);
          } else {
            m_v = _mm512_i64gather_epi64(li, cnt_tab, 8);
          }
          const __mmask8 dead = _mm512_cmpeq_epi64_mask(m_v, zero) & alive;
          if (dead) [[unlikely]] {  // dead end: remaining genes are inert
            for (std::size_t j = 0; j < nb; ++j) {
              if (dead & (1u << j)) evp[j]->dead_end = true;
            }
            alive &= static_cast<__mmask8>(~dead);
            if (!alive) break;
          }
          const __m512i packed = _mm512_i64gather_epi64(li, ops_tab, 8);
          const __m512d g_v = _mm512_mask_i64gather_pd(
              _mm512_setzero_pd(), alive, gaddr_v, nullptr, 1);
          // gene_to_index: trunc(g * m) clamped to m - 1, identical fp ops.
          const __m512i idx = _mm512_min_epu64(
              _mm512_cvttpd_epu64(
                  _mm512_mul_pd(g_v, _mm512_cvtepu64_pd(m_v))),
              _mm512_sub_epi64(m_v, one));
          const __m512i op = _mm512_and_epi64(
              _mm512_srlv_epi64(packed, _mm512_slli_epi64(idx, 2)),
              _mm512_set1_epi64(15));
          p_v = src_.apply8(p_v, op, alive);
          _mm512_mask_i64scatter_epi32(nullptr, alive, op_ad,
                                       _mm512_cvtepi64_epi32(op), 1);
          op_ad = _mm512_mask_add_epi64(op_ad, alive, op_ad,
                                        _mm512_set1_epi64(4));
          opscnt_v = _mm512_mask_add_epi64(opscnt_v, alive, opscnt_v, one);
          cost_v = _mm512_mask_add_pd(cost_v, alive, cost_v, oned);
          pos_v = _mm512_mask_add_epi64(pos_v, alive, pos_v, one);
          gaddr_v = _mm512_mask_add_epi64(gaddr_v, alive, gaddr_v,
                                          _mm512_set1_epi64(8));
          tally.ops_decoded += std::popcount(static_cast<unsigned>(alive));
          until_v = _mm512_mask_sub_epi64(until_v, alive, until_v, one);
          const __mmask8 ck = _mm512_cmpeq_epi64_mask(until_v, zero) & alive;
          if (ck) {
            _mm512_mask_i64scatter_epi64(nullptr, ck, cks_ad, p_v, 1);
            _mm512_mask_i64scatter_epi64(nullptr, ck, ckc_ad,
                                         _mm512_castpd_si512(cost_v), 1);
            cks_ad = _mm512_mask_add_epi64(cks_ad, ck, cks_ad,
                                           _mm512_set1_epi64(8));
            ckc_ad = _mm512_mask_add_epi64(ckc_ad, ck, ckc_ad,
                                           _mm512_set1_epi64(8));
            until_v = _mm512_mask_blend_epi64(ck, until_v, stride_v);
          }
          const __mmask8 gh = src_.is_goal8(p_v) & alive &
                              static_cast<__mmask8>(~gfound);
          if (gh) [[unlikely]] {
            alignas(64) std::uint64_t oc[kVL];
            _mm512_store_epi64(oc, opscnt_v);
            for (std::size_t j = 0; j < nb; ++j) {
              if (gh & (1u << j)) {
                evp[j]->goal_index = static_cast<std::size_t>(oc[j]);
              }
            }
            gfound |= gh;
            if (truncate) alive &= static_cast<__mmask8>(~gh);
          }
          alive &=
              static_cast<__mmask8>(~_mm512_cmpeq_epi64_mask(pos_v, n_v));
        }

        // Flush the staging columns into the Evaluation vectors.
        alignas(64) std::uint64_t scnt[kVL], ocnt[kVL], ccnt[kVL];
        _mm512_store_epi64(
            scnt, _mm512_srli_epi64(_mm512_sub_epi64(sig_ad, sig_ad0), 3));
        _mm512_store_epi64(
            ocnt, _mm512_srli_epi64(_mm512_sub_epi64(op_ad, op_ad0), 2));
        _mm512_store_epi64(
            ccnt, _mm512_srli_epi64(_mm512_sub_epi64(cks_ad, cks_ad0), 3));
        for (std::size_t j = 0; j < nb; ++j) {
          Evaluation<State>& ev = *evp[j];
          if constexpr (RecordSigs) {
            if (scnt[j] != 0) {
              ev.op_signatures.insert(ev.op_signatures.end(), &sig_st[j][0],
                                      &sig_st[j][scnt[j]]);
            }
          }
          if (ocnt[j] != 0) {
            ev.ops.insert(ev.ops.end(), &op_st[j][0], &op_st[j][ocnt[j]]);
          }
          for (std::size_t c = 0; c < ccnt[j]; ++c) {
            ev.checkpoint_states.push_back(from_lane(cks_st[j][c]));
          }
          if (ccnt[j] != 0) {
            ev.checkpoint_costs.insert(ev.checkpoint_costs.end(),
                                       &ckc_st[j][0], &ckc_st[j][ccnt[j]]);
          }
        }
      }

      // Retire the whole group through the shared epilogue.
      _mm512_store_epi64(p_a, p_v);
      _mm512_store_pd(cost_a, cost_v);
      for (std::size_t j = 0; j < nb; ++j) {
        evp[j]->plan_cost = cost_a[j];
        State fs = from_lane(p_a[j]);
        detail::indirect_decode_finish(ops(), opt_, rec_, tally, *evp[j], fs);
      }
    }
  }
GAPLAN_AVX512_WARNINGS_END
#endif  // GAPLAN_AVX512_DECODE

  SourceT src_;
  DecodeOptions opt_;
  detail::Recording rec_;
  std::size_t cache_entries_;  ///< per-thread valid-ops cache size
  std::uint64_t epoch_ = next_eval_epoch();  ///< context() tag
  /// Running CPU executes the AVX-512 step (compile support is kVectorStep).
  bool vector_ok_ = util::has_avx512_decode();
  std::vector<std::uint64_t> sig_;   ///< ops_signature per LUT slot
  std::vector<std::uint64_t> vops_;  ///< packed-ops LUT column, gather-ready
  std::vector<std::uint64_t> vcnt_;  ///< valid-op count column, gather-ready
};

/// Decodes `genes` using the direct encoding (DirectEncodable problems only).
/// Inapplicable selections leave the state unchanged and lower F_match.
template <DirectEncodable P>
Evaluation<typename P::StateT> decode_direct(const P& problem,
                                             const typename P::StateT& start,
                                             std::span<const Gene> genes,
                                             const DecodeOptions& opt) {
  using State = typename P::StateT;
  Evaluation<State> ev;
  const std::size_t total = problem.op_count();
  ev.ops.reserve(genes.size());
  if (opt.record_hashes) ev.state_hashes.reserve(genes.size() + 1);

  State s = start;
  if (opt.record_hashes) ev.state_hashes.push_back(problem.hash(s));
  if (problem.is_goal(s)) ev.goal_index = 0;

  std::size_t matched = 0;
  bool done = opt.truncate_at_goal && ev.goal_index != kNoGoal;
  if (!done && total > 0) {
    for (const Gene g : genes) {
      const int op = static_cast<int>(gene_to_index(g, total));
      if (problem.op_applicable(s, op)) {
        ++matched;
        ev.plan_cost += problem.op_cost(s, op);
        problem.apply(s, op);
        ev.ops.push_back(op);
        if (opt.record_hashes) ev.state_hashes.push_back(problem.hash(s));
        if (ev.goal_index == kNoGoal && problem.is_goal(s)) {
          ev.goal_index = ev.ops.size();
          if (opt.truncate_at_goal) break;
        }
      }
      // Invalid operation: "the system stays at the current state" (§3.3).
    }
  }
  // Eq. (1): match fitness = matched operations / operations in the solution.
  ev.match_fit = genes.empty() ? 1.0
                               : static_cast<double>(matched) /
                                     static_cast<double>(genes.size());
  if (opt.truncate_at_goal && ev.goal_index != kNoGoal) {
    ev.valid = true;
    ev.ops.resize(ev.goal_index);
    if (opt.record_hashes) ev.state_hashes.resize(ev.goal_index + 1);
    ev.match_fit = 1.0;  // the reported plan contains only applied operations
  } else {
    ev.valid = problem.is_goal(s);
  }
  ev.effective_length = ev.ops.size();
  ev.final_state = std::move(s);
  ev.decoded = true;
  return ev;
}

}  // namespace gaplan::ga
