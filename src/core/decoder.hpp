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
// The indirect decoder is the planner's hot kernel, so it comes in three
// entry points sharing one loop:
//   * decode_indirect        — legacy by-value API (tests, one-off decodes)
//   * decode_indirect_into   — cold decode into a recycled Evaluation, with
//                              optional valid-ops transposition caching
//   * decode_indirect_resume — incremental re-decode: restart from the
//                              checkpointed state nearest the first gene that
//                              crossover/mutation changed, bit-identical to a
//                              cold decode of the same genome
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
/// (obs counters are cheap, but one inc per decode beats one per gene).
struct DecodeTally {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t ops_decoded = 0;
  /// 8-lane AVX-512 decode steps; ops_decoded / (8 * simd_steps) is the
  /// vector path's lane occupancy.
  std::uint64_t simd_steps = 0;

  void flush() const noexcept {
    static obs::Counter& c_hits = obs::counter("eval.cache_hits");
    static obs::Counter& c_misses = obs::counter("eval.cache_misses");
    static obs::Counter& c_ops = obs::counter("eval.ops_decoded");
    static obs::Counter& c_steps = obs::counter("eval.simd_steps");
    if (cache_hits) c_hits.inc(cache_hits);
    if (cache_misses) c_misses.inc(cache_misses);
    if (ops_decoded) c_ops.inc(ops_decoded);
    if (simd_steps) c_steps.inc(simd_steps);
  }
};

/// Resolves the valid-operation list of `s`, through the transposition cache
/// when one is supplied. `hash` is the state's hash when already known
/// (kHashUnknown otherwise; it is only computed if the cache needs it).
/// The ops view stays valid until the next call; `sig` is
/// ops_signature(ops), memoized in the cache so hits skip the hash loop —
/// it is only computed when `want_sig` is set or the entry is cached.
inline constexpr std::uint64_t kHashUnknown = ~std::uint64_t{0};

struct ResolvedOps {
  std::span<const int> ops;
  std::uint64_t sig;
};

template <PlanningProblem P>
ResolvedOps resolve_valid_ops(const P& problem, const typename P::StateT& s,
                              std::uint64_t hash, bool want_sig,
                              std::vector<int>& scratch,
                              OpsCache<typename P::StateT>* cache,
                              DecodeTally& tally) {
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

/// The shared indirect-decode loop: consumes genes[from..) with `s` holding
/// the trajectory state at position `from` and `ev` holding a consistent
/// prefix (ops/hashes/signatures/checkpoints/plan_cost for positions < from).
template <PlanningProblem P>
void indirect_decode_loop(const P& problem, std::span<const Gene> genes,
                          std::size_t from, const DecodeOptions& opt,
                          std::vector<int>& scratch,
                          OpsCache<typename P::StateT>* cache,
                          DecodeTally& tally,
                          Evaluation<typename P::StateT>& ev,
                          typename P::StateT& s) {
  // Ops-until-next-checkpoint countdown: checkpoints land where
  // ops.size() % stride == 0, and a runtime-divisor modulo per decoded op is
  // measurable on trivial domains.
  std::size_t until_ckpt = std::numeric_limits<std::size_t>::max();
  if (opt.checkpoint_stride != 0) {
    until_ckpt = opt.checkpoint_stride - from % opt.checkpoint_stride;
  }
  for (std::size_t i = from; i < genes.size(); ++i) {
    const std::uint64_t cur_hash =
        opt.record_hashes ? ev.state_hashes.back() : kHashUnknown;
    const ResolvedOps res = resolve_valid_ops(problem, s, cur_hash,
                                              opt.record_hashes, scratch,
                                              cache, tally);
    // Signature of the state the upcoming gene decodes in (position ops()).
    if (opt.record_hashes && ev.op_signatures.size() < ev.state_hashes.size()) {
      ev.op_signatures.push_back(res.sig);
    }
    if (res.ops.empty()) {  // dead end: remaining genes are inert
      ev.dead_end = true;
      break;
    }
    const int op = res.ops[gene_to_index(genes[i], res.ops.size())];
    ev.plan_cost += problem.op_cost(s, op);
    problem.apply(s, op);
    ev.ops.push_back(op);
    ++tally.ops_decoded;
    if (opt.record_hashes) ev.state_hashes.push_back(problem.hash(s));
    if (--until_ckpt == 0) {
      ev.checkpoint_states.push_back(s);
      ev.checkpoint_costs.push_back(ev.plan_cost);
      until_ckpt = opt.checkpoint_stride;
    }
    if (ev.goal_index == kNoGoal && problem.is_goal(s)) {
      ev.goal_index = ev.ops.size();
      if (opt.truncate_at_goal) break;
    }
  }
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
template <PlanningProblem P>
std::size_t indirect_fast_forward(
    const P& problem, std::span<const Gene> genes,
    std::span<const Gene> parent_genes, std::size_t from,
    const DecodeOptions& opt, std::vector<int>& scratch,
    OpsCache<typename P::StateT>* cache, DecodeTally& tally,
    const Evaluation<typename P::StateT>& prev,
    Evaluation<typename P::StateT>& ev, typename P::StateT& s,
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
        if (opt.record_hashes) {
          ev.state_hashes.insert(ev.state_hashes.end(),
                                 at(prev.state_hashes, pos + 1),
                                 at(prev.state_hashes, jump + 1));
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
        opt.record_hashes ? ev.state_hashes.back() : kHashUnknown;
    const ResolvedOps res = resolve_valid_ops(problem, s, cur_hash,
                                              opt.record_hashes, scratch,
                                              cache, tally);
    if (opt.record_hashes && ev.op_signatures.size() < ev.state_hashes.size()) {
      ev.op_signatures.push_back(res.sig);
    }
    if (res.ops.empty()) {
      ev.dead_end = true;
      done = true;
      return pos;
    }
    const int op = res.ops[gene_to_index(genes[pos], res.ops.size())];
    if (pos >= prev.ops.size() || op != prev.ops[pos]) {
      return pos;  // diverged: the plain loop re-decodes from here on
    }
    ev.plan_cost += problem.op_cost(s, op);
    problem.apply(s, op);
    ev.ops.push_back(op);
    ++tally.ops_decoded;
    ++pos;
    if (opt.record_hashes) ev.state_hashes.push_back(problem.hash(s));
    if (pos % stride == 0) {
      ev.checkpoint_states.push_back(s);
      ev.checkpoint_costs.push_back(ev.plan_cost);
    }
    if (ev.goal_index == kNoGoal && problem.is_goal(s)) {
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

/// Post-loop bookkeeping shared by the cold and resume paths: goal
/// truncation, signature-trajectory closure, final state.
template <PlanningProblem P>
void indirect_decode_finish(const P& problem, const DecodeOptions& opt,
                            std::vector<int>& scratch,
                            OpsCache<typename P::StateT>* cache,
                            DecodeTally& tally,
                            Evaluation<typename P::StateT>& ev,
                            typename P::StateT& s) {
  if (opt.truncate_at_goal && ev.goal_index != kNoGoal) {
    ev.valid = true;
    ev.ops.resize(ev.goal_index);
    if (opt.record_hashes) ev.state_hashes.resize(ev.goal_index + 1);
    if (opt.checkpoint_stride != 0) {
      const std::size_t keep = ev.goal_index / opt.checkpoint_stride;
      if (ev.checkpoint_states.size() > keep) {
        ev.checkpoint_states.resize(keep);
        ev.checkpoint_costs.resize(keep);
      }
    }
  } else {
    ev.valid = problem.is_goal(s);
  }
  // Close the signature trajectory so state_hashes and op_signatures always
  // index the same positions (the final state's signature caps the vector).
  if (opt.record_hashes) {
    if (ev.op_signatures.size() > ev.state_hashes.size()) {
      ev.op_signatures.resize(ev.state_hashes.size());
    }
    while (ev.op_signatures.size() < ev.state_hashes.size()) {
      const ResolvedOps res =
          resolve_valid_ops(problem, s, ev.state_hashes.back(),
                            /*want_sig=*/true, scratch, cache, tally);
      ev.op_signatures.push_back(res.sig);
    }
  }
  ev.effective_length = ev.ops.size();
  ev.checkpoint_stride = opt.checkpoint_stride;
  ev.final_state = std::move(s);
  ev.decoded = true;
  tally.flush();
}

/// Cold decode into `ev` (recycled: reset() keeps capacity).
template <PlanningProblem P>
void decode_indirect_impl(const P& problem, const typename P::StateT& start,
                          std::span<const Gene> genes, const DecodeOptions& opt,
                          std::vector<int>& scratch,
                          OpsCache<typename P::StateT>* cache,
                          Evaluation<typename P::StateT>& ev) {
  using State = typename P::StateT;
  ev.reset();
  ev.match_fit = 1.0;  // indirect encoding: all operations valid by construction
  ev.ops.reserve(genes.size());
  if (opt.record_hashes) {
    ev.state_hashes.reserve(genes.size() + 1);
    ev.op_signatures.reserve(genes.size() + 1);
  }

  DecodeTally tally;
  State s = start;
  if (opt.record_hashes) ev.state_hashes.push_back(problem.hash(s));
  bool done = false;
  if (problem.is_goal(s)) {
    ev.goal_index = 0;
    done = opt.truncate_at_goal;
  }
  if (!done) {
    indirect_decode_loop(problem, genes, 0, opt, scratch, cache, tally, ev, s);
  }
  indirect_decode_finish(problem, opt, scratch, cache, tally, ev, s);
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
  detail::decode_indirect_impl(problem, start, genes, opt, scratch, nullptr, ev);
  return ev;
}

/// Cold decode into a recycled Evaluation, using the context's valid-ops
/// transposition cache when it is enabled (EvalContext::sync sizes it).
template <PlanningProblem P>
void decode_indirect_into(const P& problem, const typename P::StateT& start,
                          std::span<const Gene> genes, const DecodeOptions& opt,
                          EvalContext<typename P::StateT>& ctx,
                          Evaluation<typename P::StateT>& ev) {
  detail::decode_indirect_impl(problem, start, genes, opt, ctx.scratch,
                               ctx.cache.enabled() ? &ctx.cache : nullptr, ev);
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
  using State = typename P::StateT;
  OpsCache<State>* cache = ctx.cache.enabled() ? &ctx.cache : nullptr;
  if (!prev.decoded || &prev == &ev ||
      prev.checkpoint_stride != opt.checkpoint_stride ||
      (opt.record_hashes && prev.state_hashes.size() != prev.ops.size() + 1)) {
    detail::decode_indirect_impl(problem, start, genes, opt, ctx.scratch, cache, ev);
    return 0;
  }
  const std::size_t dirty = std::min(first_dirty, genes.size());

  // Whole-evaluation reuse: prev's decode provably terminated at or before
  // the first modified gene, so the child decodes to the very same record.
  // (dead_end marks that the state after ops has an empty valid-op set — a
  // property of the state, so it transfers with the copy.)
  const bool goal_terminated = opt.truncate_at_goal &&
                               prev.goal_index != kNoGoal &&
                               prev.goal_index <= dirty;
  const bool dead_terminated = prev.dead_end && prev.ops.size() <= dirty;
  const bool genome_unchanged =
      prev.ops.size() == genes.size() && dirty >= genes.size();
  if (goal_terminated || dead_terminated || genome_unchanged) {
    ev = prev;  // copy-assign recycles ev's buffers
    static obs::Counter& c_reused = obs::counter("eval.resume_genes_skipped");
    static obs::Counter& c_whole = obs::counter("eval.reuse_whole");
    c_reused.inc(genes.size());
    c_whole.inc();
    return genes.size();
  }

  const std::size_t limit = std::min(dirty, prev.ops.size());
  const std::size_t stride = prev.checkpoint_stride;
  std::size_t k = stride == 0 ? 0 : limit / stride;
  k = std::min(k, prev.checkpoint_states.size());
  const std::size_t resume_at = k * stride;
  if (resume_at == 0) {  // no checkpoint below the dirty gene: cold decode
    detail::decode_indirect_impl(problem, start, genes, opt, ctx.scratch, cache, ev);
    return 0;
  }

  ev.reset();
  ev.match_fit = 1.0;
  ev.ops.reserve(genes.size());
  ev.ops.assign(prev.ops.begin(),
                prev.ops.begin() + static_cast<std::ptrdiff_t>(resume_at));
  if (opt.record_hashes) {
    ev.state_hashes.reserve(genes.size() + 1);
    ev.op_signatures.reserve(genes.size() + 1);
    ev.state_hashes.assign(
        prev.state_hashes.begin(),
        prev.state_hashes.begin() + static_cast<std::ptrdiff_t>(resume_at + 1));
    ev.op_signatures.assign(
        prev.op_signatures.begin(),
        prev.op_signatures.begin() + static_cast<std::ptrdiff_t>(resume_at));
  }
  ev.checkpoint_states.assign(
      prev.checkpoint_states.begin(),
      prev.checkpoint_states.begin() + static_cast<std::ptrdiff_t>(k));
  ev.checkpoint_costs.assign(
      prev.checkpoint_costs.begin(),
      prev.checkpoint_costs.begin() + static_cast<std::ptrdiff_t>(k));
  ev.plan_cost = prev.checkpoint_costs[k - 1];
  // Goal sightings inside the kept prefix transfer; later ones are
  // re-discovered by the loop. (With truncate_at_goal, a goal at or below the
  // resume point was already handled by the whole-reuse branch above.)
  if (prev.goal_index != kNoGoal && prev.goal_index <= resume_at) {
    ev.goal_index = prev.goal_index;
  }

  State s = prev.checkpoint_states[k - 1];
  detail::DecodeTally tally;
  static obs::Counter& c_resumed = obs::counter("eval.resume_genes_skipped");
  static obs::Counter& c_partial = obs::counter("eval.resume_partial");
  static obs::Counter& c_ff = obs::counter("eval.ff_genes_skipped");
  c_partial.inc();
  std::size_t ff_skipped = 0;
  bool done = false;
  std::size_t cont = resume_at;
  if (!parent_genes.empty()) {
    cont = detail::indirect_fast_forward(problem, genes, parent_genes,
                                         resume_at, opt, ctx.scratch, cache,
                                         tally, prev, ev, s, ff_skipped, done);
  }
  if (!done) {
    detail::indirect_decode_loop(problem, genes, cont, opt, ctx.scratch, cache,
                                 tally, ev, s);
  }
  detail::indirect_decode_finish(problem, opt, ctx.scratch, cache, tally, ev, s);
  c_resumed.inc(resume_at + ff_skipped);
  if (ff_skipped != 0) c_ff.inc(ff_skipped);
  return resume_at + ff_skipped;
}

namespace detail {

/// One individual's decode request inside a KernelBatchDecoder pass.
/// `prev == nullptr` forces a cold decode; otherwise the slot resumes from
/// `prev` exactly like decode_indirect_resume (same fallback conditions, same
/// whole-reuse / partial-resume / fast-forward structure).
template <typename State>
struct KernelSlot {
  std::span<const Gene> genes;
  const Evaluation<State>* prev = nullptr;
  std::span<const Gene> parent_genes;
  std::size_t first_dirty = 0;
  Evaluation<State>* ev = nullptr;
};

/// A slot after KernelBatchDecoder's prepare step: the trajectory state at
/// gene `pos` and the checkpoint countdown, where the decode loop takes
/// over. `slot` is null when prepare already completed the slot (whole
/// reuse, goal at the start state, fast-forward to the end).
template <typename State>
struct KernelLane {
  State s{};
  std::size_t pos = 0;
  std::size_t until_ckpt = 0;
  KernelSlot<State>* slot = nullptr;

  std::size_t remaining() const noexcept { return slot->genes.size() - pos; }
};

}  // namespace detail

/// Population-wide decoder over a domain's SIMD kernel (see SimdDecodable in
/// problem.hpp). Where the scalar path re-enumerates valid operations into a
/// scratch vector and re-hashes them into a crossover signature per decoded
/// gene, this path folds both into table lookups: the kernel's packed-ops LUT
/// yields the operation set as one 64-bit word, and `sig_` — built once per
/// decoder from the same LUT — yields the matching ops_signature.
///
/// run() takes a whole generation in one pass: it prepares every slot (the
/// resume head), sorts the slots still decoding longest-remaining-first once,
/// and decodes them in kGroup-lane groups — 8 individuals per AVX-512
/// instruction on kernels with vector hooks, else a scalar loop that
/// interleaves kIlv independent decode chains. A group runs until its longest
/// lane finishes, so sorting the whole population (not a handful of slots)
/// is what keeps the lanes busy; eval.simd_steps counts the vector steps.
///
/// Bit-identical contract: every branch below mirrors the corresponding
/// scalar code (decode_indirect_impl / decode_indirect_resume /
/// indirect_fast_forward / indirect_decode_loop / indirect_decode_finish)
/// line for line, so the produced Evaluations — ops, hashes, signatures,
/// checkpoint ladder, and the plan_cost addition order per lane — match the
/// scalar decoder exactly, whatever the grouping or thread count.
///
/// Intentionally *not* constrained to SimdDecodable<P> at class scope so the
/// engine can name KernelBatchDecoder<P> inside a std::conditional_t without
/// instantiating it for kernel-less domains.
template <typename P>
class KernelBatchDecoder {
 public:
  using State = typename P::StateT;
  using KernelT =
      std::remove_cvref_t<decltype(std::declval<const P&>().simd_kernel())>;

  /// Lanes per decode group: one zmm of uint64 lanes, and the unit the
  /// thread pool deals out.
  static constexpr std::size_t kGroup = 8;

  /// `need_state_hashes` — whether anything downstream reads
  /// Evaluation::state_hashes (only exact-state crossover matching does; see
  /// detail::match_keys). The scalar decoder computes the state hash per gene
  /// regardless, because it doubles as the ops-cache key; the LUT kernel has
  /// no cache to key, so when the hashes are unread it skips both the hash
  /// computation and the push — the decoded trajectory (ops, signatures,
  /// checkpoint ladder, costs) is unaffected.
  KernelBatchDecoder(const P& problem, const DecodeOptions& opt,
                     bool need_state_hashes = true)
      : kernel_(problem.simd_kernel()),
        opt_(opt),
        record_hashes_(opt.record_hashes && need_state_hashes),
        record_sigs_(opt.record_hashes) {
    // Precompute ops_signature per LUT slot: the scalar path hashes the
    // valid-op list at every decoded gene; here it is one indexed load. The
    // packed-ops and count columns are copied out as uint64 tables alongside
    // so the vector path can fetch all three with 64-bit gathers.
    sig_.resize(kernel_.lut_size());
    vops_.resize(sig_.size());
    vcnt_.resize(sig_.size());
    std::vector<int> ops;
    for (std::size_t i = 0; i < sig_.size(); ++i) {
      const std::uint32_t slot = static_cast<std::uint32_t>(i);
      const PackedOps po{kernel_.lut_ops(slot), kernel_.lut_count(slot)};
      ops.clear();
      for (std::uint32_t j = 0; j < po.m; ++j) ops.push_back(po.op(j));
      sig_[i] = ops_signature(ops);
      vops_[i] = po.packed;
      vcnt_[i] = po.m;
      // One-time audit of the kernel's popcount claim (see
      // kLutCountIsPopcount): a lying trait would silently desync the vector
      // path's op selection from the scalar decoder.
      if constexpr (requires { requires KernelT::kLutCountIsPopcount; }) {
        assert(vcnt_[i] == static_cast<std::uint64_t>(std::popcount(i)));
      }
    }
  }

  const DecodeOptions& options() const noexcept { return opt_; }

  /// Decodes every slot from `start` in one pass. `lanes` is caller-owned
  /// scratch (its capacity is reused, so a steady-state pass allocates
  /// nothing). With a `pool` of more than one worker, prepare is split over
  /// the slots and the sorted groups are dealt to the workers one at a time,
  /// longest first, so no worker trails another by more than one group.
  /// Thread-safe for disjoint slots and scratch.
  void run(const State& start, std::span<detail::KernelSlot<State>> slots,
           std::vector<detail::KernelLane<State>>& lanes,
           util::ThreadPool* pool) const {
    const std::size_t n = slots.size();
    const bool pooled = pool != nullptr && pool->thread_count() > 1;
    lanes.resize(n);
    const auto prepare_range = [&](std::size_t lo, std::size_t hi) {
      detail::DecodeTally tally;
      for (std::size_t i = lo; i < hi; ++i) {
        prepare(start, slots[i], lanes[i], tally);
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
    std::erase_if(lanes, [](const detail::KernelLane<State>& ln) {
      return ln.slot == nullptr;
    });
    std::sort(lanes.begin(), lanes.end(),
              [](const detail::KernelLane<State>& a,
                 const detail::KernelLane<State>& b) {
                return a.remaining() > b.remaining();
              });

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
    static obs::Counter& c_batches = obs::counter("eval.batches");
    static obs::Counter& c_lanes = obs::counter("eval.simd_lanes_used");
    c_batches.inc();
    c_lanes.inc(n);
  }

  /// Serial run() with scratch of its own, for one-off decodes.
  void run(const State& start,
           std::span<detail::KernelSlot<State>> slots) const {
    std::vector<detail::KernelLane<State>> lanes;
    run(start, slots, lanes, nullptr);
  }

 private:
#if GAPLAN_AVX512_DECODE
  /// A kernel opts into the 8-lane vector decode (run_vector) by exposing the
  /// three hooks lut_index8 / apply8 / is_goal8 plus the kUnitOpCost trait
  /// (see HanoiKernel), for states that are one trivially-copyable 64-bit
  /// word — the lane payload is the raw state bit pattern.
  // (Expression-only checks: naming __m512i as a template argument of a
  // return-type-requirement would drop its alignment attributes and warn.)
  static constexpr bool kVectorStep =
      sizeof(State) == 8 && std::is_trivially_copyable_v<State> &&
      requires(const KernelT& k, __m512i v, __mmask8 lanes) {
        requires KernelT::kUnitOpCost;
        k.lut_index8(v);
        k.apply8(v, v, lanes);
        { k.is_goal8(v) } -> std::same_as<__mmask8>;
      };
#endif

  /// Decodes sorted, prepared lanes to completion on the vector path when
  /// the kernel and CPU allow it, else on the scalar interleave.
  void decode_lanes(std::span<const detail::KernelLane<State>> lanes,
                    detail::DecodeTally& tally) const {
#if GAPLAN_AVX512_DECODE
    if constexpr (kVectorStep) {
      // The vector step records no state hashes, so exact-state matching
      // (record_hashes_) stays on the scalar-interleave path.
      if (!record_hashes_ && vector_ok_) {
        if (record_sigs_) {
          run_vector<true>(lanes, tally);
        } else {
          run_vector<false>(lanes, tally);
        }
        return;
      }
    }
#endif
    if (record_hashes_) {
      run_impl<true, true>(lanes, tally);
    } else if (record_sigs_) {
      run_impl<false, true>(lanes, tally);
    } else {
      run_impl<false, false>(lanes, tally);
    }
  }

  /// Replicates the head of decode_indirect_resume (or the cold-decode init)
  /// for one slot. Leaves `ln` positioned where the decode loop takes over,
  /// or completes the slot and clears ln.slot when nothing is left to decode.
  void prepare(const State& start, detail::KernelSlot<State>& slot,
               detail::KernelLane<State>& ln,
               detail::DecodeTally& tally) const {
    Evaluation<State>& ev = *slot.ev;
    const std::span<const Gene> genes = slot.genes;
    const std::size_t stride = opt_.checkpoint_stride;
    bool done = false;
    bool cold = true;
    ln.slot = nullptr;

    if (slot.prev != nullptr) {
      const Evaluation<State>& prev = *slot.prev;
      if (prev.decoded && &prev != slot.ev &&
          prev.checkpoint_stride == stride &&
          (!record_hashes_ ||
           prev.state_hashes.size() == prev.ops.size() + 1) &&
          (!record_sigs_ ||
           prev.op_signatures.size() == prev.ops.size() + 1)) {
        const std::size_t dirty = std::min(slot.first_dirty, genes.size());
        const bool goal_terminated = opt_.truncate_at_goal &&
                                     prev.goal_index != kNoGoal &&
                                     prev.goal_index <= dirty;
        const bool dead_terminated = prev.dead_end && prev.ops.size() <= dirty;
        const bool genome_unchanged =
            prev.ops.size() == genes.size() && dirty >= genes.size();
        if (goal_terminated || dead_terminated || genome_unchanged) {
          ev = prev;
          static obs::Counter& c_reused =
              obs::counter("eval.resume_genes_skipped");
          static obs::Counter& c_whole = obs::counter("eval.reuse_whole");
          c_reused.inc(genes.size());
          c_whole.inc();
          return;
        }
        const std::size_t limit = std::min(dirty, prev.ops.size());
        std::size_t k = stride == 0 ? 0 : limit / stride;
        k = std::min(k, prev.checkpoint_states.size());
        const std::size_t resume_at = k * stride;
        if (resume_at != 0) {
          cold = false;
          ev.reset();
          ev.match_fit = 1.0;
          ev.ops.reserve(genes.size());
          ev.ops.assign(prev.ops.begin(),
                        prev.ops.begin() +
                            static_cast<std::ptrdiff_t>(resume_at));
          if (record_hashes_) {
            ev.state_hashes.reserve(genes.size() + 1);
            ev.state_hashes.assign(
                prev.state_hashes.begin(),
                prev.state_hashes.begin() +
                    static_cast<std::ptrdiff_t>(resume_at + 1));
          }
          if (record_sigs_) {
            ev.op_signatures.reserve(genes.size() + 1);
            ev.op_signatures.assign(
                prev.op_signatures.begin(),
                prev.op_signatures.begin() +
                    static_cast<std::ptrdiff_t>(resume_at));
          }
          ev.checkpoint_states.assign(
              prev.checkpoint_states.begin(),
              prev.checkpoint_states.begin() + static_cast<std::ptrdiff_t>(k));
          ev.checkpoint_costs.assign(
              prev.checkpoint_costs.begin(),
              prev.checkpoint_costs.begin() + static_cast<std::ptrdiff_t>(k));
          ev.plan_cost = prev.checkpoint_costs[k - 1];
          if (prev.goal_index != kNoGoal && prev.goal_index <= resume_at) {
            ev.goal_index = prev.goal_index;
          }
          ln.s = prev.checkpoint_states[k - 1];
          static obs::Counter& c_resumed =
              obs::counter("eval.resume_genes_skipped");
          static obs::Counter& c_partial = obs::counter("eval.resume_partial");
          static obs::Counter& c_ff = obs::counter("eval.ff_genes_skipped");
          c_partial.inc();
          std::size_t ff_skipped = 0;
          std::size_t cont = resume_at;
          if (!slot.parent_genes.empty()) {
            cont = fast_forward(genes, slot.parent_genes, resume_at, tally,
                                prev, ev, ln.s, ff_skipped, done);
          }
          ln.pos = cont;
          c_resumed.inc(resume_at + ff_skipped);
          if (ff_skipped != 0) c_ff.inc(ff_skipped);
        }
      }
    }

    if (cold) {
      ev.reset();
      ev.match_fit = 1.0;
      ev.ops.reserve(genes.size());
      if (record_hashes_) ev.state_hashes.reserve(genes.size() + 1);
      if (record_sigs_) ev.op_signatures.reserve(genes.size() + 1);
      ln.s = start;
      ln.pos = 0;
      if (record_hashes_) ev.state_hashes.push_back(kernel_.hash(ln.s));
      if (kernel_.is_goal(ln.s)) {
        ev.goal_index = 0;
        done = opt_.truncate_at_goal;
      }
    }
    ln.until_ckpt = stride != 0 ? stride - ln.pos % stride
                                : std::numeric_limits<std::size_t>::max();
    if (!done && ln.pos < genes.size()) {
      ln.slot = &slot;
    } else {
      finish(ev, ln.s);
    }
  }

  /// Interleave width of the scalar decode. Each lane's decode is a serial
  /// state→LUT→op→state dependency chain whose latency dominates the scalar
  /// engine's per-gene cost; stepping kIlv independent lanes in one loop body
  /// lets the out-of-order core overlap their chains (~2x on the reference
  /// box; diminishing returns past 4 as register pressure sets in).
  static constexpr std::size_t kIlv = 4;

  /// Scalar decode of prepared lanes: keeps up to kIlv lanes live, steps
  /// them in bounded interleaved rounds, and refills a retired lane from the
  /// pending ones so the chain overlap stays high. Each lane performs
  /// indirect_decode_loop's operations in its order — lanes only interleave
  /// *between* individuals' trajectories, never within one — so the produced
  /// Evaluations are unchanged.
  template <bool RecordHashes, bool RecordSigs>
  void run_impl(std::span<const detail::KernelLane<State>> lanes,
                detail::DecodeTally& tally) const {
    // Lane state as parallel plain-scalar locals (a lane-SoA): the compiler
    // can prove nothing aliases them — vector push_backs write through
    // Evaluation pointers, but these arrays' addresses never escape — so
    // after unrolling the i-loop each lane's state lives in registers across
    // the whole round instead of being reloaded after every push.
    State s[kIlv];
    const Gene* gp[kIlv] = {};
    std::size_t n[kIlv] = {};
    std::size_t pos[kIlv] = {};
    std::size_t until[kIlv] = {};
    double cost[kIlv] = {};
    bool need_sig[kIlv] = {};
    bool stopped[kIlv] = {};  // goal truncation / dead end inside a round
    Evaluation<State>* evp[kIlv] = {};
    std::size_t m = 0;     // live lanes (compacted into index range [0, m))
    std::size_t next = 0;  // next pending lane

    const auto pump = [&] {
      for (; m < kIlv && next < lanes.size(); ++m, ++next) {
        const detail::KernelLane<State>& ln = lanes[next];
        Evaluation<State>& ev = *ln.slot->ev;
        s[m] = ln.s;
        gp[m] = ln.slot->genes.data();
        n[m] = ln.slot->genes.size();
        pos[m] = ln.pos;
        until[m] = ln.until_ckpt;
        cost[m] = ev.plan_cost;
        // After a fast-forward divergence the signature for the resume
        // position is already recorded (the scalar loop's sigs<hashes
        // guard, rephrased on positions).
        need_sig[m] = !RecordSigs || ev.op_signatures.size() <= ln.pos;
        stopped[m] = false;
        evp[m] = &ev;
      }
    };

    pump();
    while (m > 0) {
      // Round bound: no live lane runs past its genome inside a round, and
      // the cap keeps retired lanes (goal/dead end) idle only briefly before
      // the refill below replaces them.
      std::size_t bound = 64;
      for (std::size_t i = 0; i < m; ++i) {
        bound = std::min(bound, n[i] - pos[i]);
      }
      bool refill = false;  // a lane stopped: retire + refill before more rounds
      for (std::size_t t = 0; t < bound && !refill; ++t) {
        for (std::size_t i = 0; i < kIlv; ++i) {
          if (i >= m || stopped[i]) continue;
          Evaluation<State>& ev = *evp[i];
          const std::uint32_t li = kernel_.lut_index(s[i]);
          const PackedOps po{kernel_.lut_ops(li), kernel_.lut_count(li)};
          if constexpr (RecordSigs) {
            if (need_sig[i]) {
              ev.op_signatures.push_back(sig_[li]);
            } else {
              need_sig[i] = true;
            }
          }
          if (po.m == 0) {  // dead end: remaining genes are inert
            ev.dead_end = true;
            stopped[i] = true;
            refill = true;
            continue;
          }
          const int op = po.op(gene_to_index(gp[i][pos[i]], po.m));
          cost[i] += kernel_.op_cost(s[i], op);
          kernel_.apply(s[i], op);
          ev.ops.push_back(op);
          ++tally.ops_decoded;
          ++pos[i];
          if constexpr (RecordHashes) {
            ev.state_hashes.push_back(kernel_.hash(s[i]));
          }
          if (--until[i] == 0) {
            ev.checkpoint_states.push_back(s[i]);
            ev.checkpoint_costs.push_back(cost[i]);
            until[i] = opt_.checkpoint_stride;
          }
          if (ev.goal_index == kNoGoal && kernel_.is_goal(s[i])) {
            ev.goal_index = ev.ops.size();
            if (opt_.truncate_at_goal) {
              stopped[i] = true;
              refill = true;
            }
          }
        }
      }
      // Retire finished lanes (compacting), then refill from pending lanes.
      for (std::size_t i = 0; i < m;) {
        if (stopped[i] || pos[i] >= n[i]) {
          evp[i]->plan_cost = cost[i];
          State fs = s[i];  // keep s[]'s address out of finish()
          finish(*evp[i], fs);
          --m;
          s[i] = s[m];
          gp[i] = gp[m];
          n[i] = n[m];
          pos[i] = pos[m];
          until[i] = until[m];
          cost[i] = cost[m];
          need_sig[i] = need_sig[m];
          stopped[i] = stopped[m];
          evp[i] = evp[m];
        } else {
          ++i;
        }
      }
      pump();
    }
  }

#if GAPLAN_AVX512_DECODE
  static constexpr std::size_t kVL = kGroup;  ///< uint64 lanes per zmm
  static constexpr std::size_t kVChunk = 64;  ///< steps between staging flushes

  /// Data-parallel decode: 8 individuals advance one gene per iteration in
  /// AVX-512 registers. The scalar interleave above overlaps lanes'
  /// dependency chains but still issues every lane's scalar op stream; here
  /// one instruction stream serves all 8 lanes, and the kernel hooks
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
  /// whole group retires through the shared finish().
  ///
  /// Only compiled for kVectorStep kernels and only entered behind
  /// util::has_avx512_decode() (see decode_lanes); never records state
  /// hashes — the dispatch keeps exact-state matching on the scalar path.
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
      // After a fast-forward divergence the signature for the resume
      // position is already recorded; the first flush drops the duplicate
      // the step loop stages unconditionally.
      bool skip_sig[kVL] = {};
      __mmask8 gfound = 0;  ///< goal_index preset by resume: no re-detection
      for (std::size_t j = 0; j < nb; ++j) {
        const detail::KernelLane<State>& ln = lanes[base + j];
        Evaluation<State>& ev = *ln.slot->ev;
        p_a[j] = std::bit_cast<std::uint64_t>(ln.s);
        pos_a[j] = ln.pos;
        n_a[j] = ln.slot->genes.size();
        until_a[j] = ln.until_ckpt;
        gaddr_a[j] =
            reinterpret_cast<std::uintptr_t>(ln.slot->genes.data() + ln.pos);
        opscnt_a[j] = ev.ops.size();
        cost_a[j] = ev.plan_cost;
        evp[j] = &ev;
        skip_sig[j] = RecordSigs && ev.op_signatures.size() > ln.pos;
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
          const __m512i li = kernel_.lut_index8(p_v);
          if constexpr (RecordSigs) {
            const __m512i sig = _mm512_i64gather_epi64(li, sig_tab, 8);
            _mm512_mask_i64scatter_epi64(nullptr, alive, sig_ad, sig, 1);
            sig_ad = _mm512_mask_add_epi64(sig_ad, alive, sig_ad,
                                           _mm512_set1_epi64(8));
          }
          __m512i m_v;
          if constexpr (requires { requires KernelT::kLutCountIsPopcount; }) {
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
          p_v = kernel_.apply8(p_v, op, alive);
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
          const __mmask8 gh = kernel_.is_goal8(p_v) & alive &
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
            std::size_t lo = 0;
            if (skip_sig[j] && scnt[j] != 0) {
              lo = 1;
              skip_sig[j] = false;
            }
            if (scnt[j] > lo) {
              ev.op_signatures.insert(ev.op_signatures.end(), &sig_st[j][lo],
                                      &sig_st[j][scnt[j]]);
            }
          }
          if (ocnt[j] != 0) {
            ev.ops.insert(ev.ops.end(), &op_st[j][0], &op_st[j][ocnt[j]]);
          }
          for (std::size_t c = 0; c < ccnt[j]; ++c) {
            ev.checkpoint_states.push_back(std::bit_cast<State>(cks_st[j][c]));
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
        State fs = std::bit_cast<State>(p_a[j]);
        finish(*evp[j], fs);
      }
    }
  }
#endif  // GAPLAN_AVX512_DECODE

  /// Kernel mirror of indirect_fast_forward — same jump/decode/divergence
  /// structure, with LUT lookups in place of resolve_valid_ops.
  std::size_t fast_forward(std::span<const Gene> genes,
                           std::span<const Gene> parent_genes,
                           std::size_t from, detail::DecodeTally& tally,
                           const Evaluation<State>& prev,
                           Evaluation<State>& ev, State& s,
                           std::size_t& skipped, bool& done) const {
    const std::size_t stride = opt_.checkpoint_stride;
    const std::size_t scan_lim =
        std::min({genes.size(), parent_genes.size(), prev.ops.size()});
    const auto at = [](const auto& v, std::size_t i) {
      return v.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::size_t pos = from;
    while (pos < genes.size()) {
      if (pos % stride == 0 && pos < scan_lim) {
        std::size_t d = pos;
        while (d < scan_lim && genes[d] == parent_genes[d]) ++d;
        const std::size_t kk =
            std::min(d / stride, prev.checkpoint_states.size());
        const std::size_t jump = kk * stride;
        if (jump > pos) {
          ev.ops.insert(ev.ops.end(), at(prev.ops, pos), at(prev.ops, jump));
          if (record_hashes_) {
            ev.state_hashes.insert(ev.state_hashes.end(),
                                   at(prev.state_hashes, pos + 1),
                                   at(prev.state_hashes, jump + 1));
          }
          if (record_sigs_) {
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
            ev.goal_index = prev.goal_index;
            if (opt_.truncate_at_goal) {
              done = true;
              return pos;
            }
          }
          continue;
        }
      }
      const std::uint32_t li = kernel_.lut_index(s);
      const PackedOps po{kernel_.lut_ops(li), kernel_.lut_count(li)};
      if (record_sigs_ && ev.op_signatures.size() <= pos) {
        ev.op_signatures.push_back(sig_[li]);
      }
      if (po.m == 0) {
        ev.dead_end = true;
        done = true;
        return pos;
      }
      const int op = po.op(gene_to_index(genes[pos], po.m));
      if (pos >= prev.ops.size() || op != prev.ops[pos]) {
        return pos;  // diverged: the main loop re-decodes from here on
      }
      ev.plan_cost += kernel_.op_cost(s, op);
      kernel_.apply(s, op);
      ev.ops.push_back(op);
      ++tally.ops_decoded;
      ++pos;
      if (record_hashes_) ev.state_hashes.push_back(kernel_.hash(s));
      if (pos % stride == 0) {
        ev.checkpoint_states.push_back(s);
        ev.checkpoint_costs.push_back(ev.plan_cost);
      }
      if (ev.goal_index == kNoGoal && kernel_.is_goal(s)) {
        ev.goal_index = pos;
        if (opt_.truncate_at_goal) {
          done = true;
          return pos;
        }
      }
    }
    done = true;
    return pos;
  }

  /// Kernel mirror of indirect_decode_finish.
  void finish(Evaluation<State>& ev, State& s) const {
    if (opt_.truncate_at_goal && ev.goal_index != kNoGoal) {
      ev.valid = true;
      ev.ops.resize(ev.goal_index);
      if (record_hashes_) ev.state_hashes.resize(ev.goal_index + 1);
      if (opt_.checkpoint_stride != 0) {
        const std::size_t keep = ev.goal_index / opt_.checkpoint_stride;
        if (ev.checkpoint_states.size() > keep) {
          ev.checkpoint_states.resize(keep);
          ev.checkpoint_costs.resize(keep);
        }
      }
    } else {
      ev.valid = kernel_.is_goal(s);
    }
    // Close the signature trajectory: one signature per position, capped by
    // the final state's (== state_hashes closure in the scalar decoder, which
    // keeps hashes at ops+1 throughout).
    if (record_sigs_) {
      const std::size_t want = ev.ops.size() + 1;
      if (ev.op_signatures.size() > want) ev.op_signatures.resize(want);
      while (ev.op_signatures.size() < want) {
        ev.op_signatures.push_back(sig_[kernel_.lut_index(s)]);
      }
    }
    ev.effective_length = ev.ops.size();
    ev.checkpoint_stride = opt_.checkpoint_stride;
    ev.final_state = std::move(s);
    ev.decoded = true;
  }

  KernelT kernel_;
  DecodeOptions opt_;
  bool record_hashes_ = true;  ///< state_hashes consumed (exact-state match)
  bool record_sigs_ = true;    ///< op_signatures consumed (valid-ops match)
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
