// Per-thread evaluation context: the reusable valid-op scratch buffer plus a
// fixed-size, open-addressed transposition cache mapping state hash → valid
// operation list.
//
// The cache attacks the dominant decode cost in domains whose valid_ops is
// expensive (Sokoban's player-reachability BFS, strips' applicability scan,
// the grid workflow's program × machine scan over its pool snapshot):
// GA populations revisit the same states constantly — every genome decodes
// from the same phase start state, and crossover/mutation leave long shared
// prefixes — so the hit rate is high. Entries store the full state and are
// verified by equality on lookup, so a 64-bit hash collision can never return
// the wrong operation list: results are bit-identical to uncached decoding.
//
// Interplay with the evaluation pass (KernelBatchDecoder): domains that
// expose a SimdDecodable kernel bypass this cache in the pass — the kernel's
// LUT is a perfect, precomputed replacement for the memo table. Every other
// domain decodes the pass over ProblemOps through each worker's context
// (KernelBatchDecoder::context); there the cache pays for itself (Sokoban
// at gaplan_serve's tuning ran 2.3-2.6x slower with ops_cache_size=0 on a
// 4-vCPU AVX-512 VM; the genomics grid workflow at
// workflow_cli's GA settings hits 99.96% of lookups and ran 2.2x the median
// evals/s of ops_cache_size=0, BENCH_eval.json "workflow_cache").
//
// Contexts are thread-local (one writer, no synchronization) and tagged with
// the (owner address, epoch) pair they were filled for; sync() clears the
// cache whenever either changes, so a cache can never leak entries across
// problem instances — including a new instance constructed at a recycled
// address, because every owner draws a fresh epoch (a KernelBatchDecoder at
// construction, once per PhaseRunner::init()).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gaplan::ga {

/// Open-addressed state→valid-ops cache with linear probing and bounded probe
/// length. Capacity is fixed at resize time (rounded up to a power of two);
/// on a full probe window the first probed slot is evicted, which keeps the
/// structure allocation-free after warm-up.
template <typename State>
class OpsCache {
 public:
  /// Op lists at most this long are stored inline in the slot, so the decode
  /// hot path reads them without chasing a pointer into a scattered heap
  /// buffer (every domain in the suite branches ≤ 8 ways except strips,
  /// whose lists overflow to the slot's vector).
  static constexpr std::size_t kInlineOps = 8;

  /// Cached payload: the valid-op list plus its ops_signature (decoder.hpp),
  /// memoized so a hit never recomputes the signature hash.
  struct Entry {
    std::uint64_t sig = 0;
    std::uint32_t count = 0;
    std::array<int, kInlineOps> inline_ops{};
    std::vector<int> overflow;

    std::span<const int> ops() const noexcept {
      return count <= kInlineOps
                 ? std::span<const int>(inline_ops.data(), count)
                 : std::span<const int>(overflow);
    }
  };

  /// Sizes the cache for roughly `entries` states (0 disables it). Existing
  /// contents are discarded.
  void resize(std::size_t entries) {
    std::size_t cap = 0;
    if (entries > 0) {
      cap = 1;
      while (cap < entries) cap <<= 1;
    }
    slots_.assign(cap, Slot{});
    mask_ = cap == 0 ? 0 : cap - 1;
  }

  void clear() noexcept {
    for (Slot& s : slots_) s.used = false;
  }

  bool enabled() const noexcept { return !slots_.empty(); }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Returns the cached entry for (hash, state), or nullptr. The pointer
  /// stays valid until the next insert/resize/clear.
  const Entry* find(std::uint64_t hash, const State& state) const {
    if (slots_.empty()) return nullptr;
    std::size_t idx = static_cast<std::size_t>(hash) & mask_;
    for (int probe = 0; probe < kProbes; ++probe) {
      const Slot& slot = slots_[idx];
      if (!slot.used) return nullptr;
      if (slot.hash == hash && slot.state == state) return &slot.entry;
      idx = (idx + 1) & mask_;
    }
    return nullptr;
  }

  /// Stores (hash, state) → (ops, sig) and returns the stored entry (nullptr
  /// when the cache is disabled). Prefers an empty or matching slot in the
  /// probe window; otherwise evicts the first probed slot.
  const Entry* insert(std::uint64_t hash, const State& state,
                      const std::vector<int>& ops, std::uint64_t sig) {
    if (slots_.empty()) return nullptr;
    const std::size_t home = static_cast<std::size_t>(hash) & mask_;
    std::size_t idx = home;
    std::size_t victim = home;
    for (int probe = 0; probe < kProbes; ++probe) {
      Slot& slot = slots_[idx];
      if (!slot.used || (slot.hash == hash && slot.state == state)) {
        victim = idx;
        break;
      }
      idx = (idx + 1) & mask_;
    }
    Slot& slot = slots_[victim];
    slot.used = true;
    slot.hash = hash;
    slot.state = state;
    slot.entry.sig = sig;
    slot.entry.count = static_cast<std::uint32_t>(ops.size());
    if (ops.size() <= kInlineOps) {
      std::copy(ops.begin(), ops.end(), slot.entry.inline_ops.begin());
    } else {
      slot.entry.overflow = ops;  // copy-assign reuses the slot's capacity
    }
    return &slot.entry;
  }

 private:
  static constexpr int kProbes = 4;

  struct Slot {
    std::uint64_t hash = 0;
    State state{};
    Entry entry;
    bool used = false;
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// Monotonic epoch, drawn by every context owner (each KernelBatchDecoder,
/// so each PhaseRunner::init()). Thread-local eval contexts compare it
/// (together with the owner address) to decide whether their cached state is
/// still meaningful.
inline std::atomic<std::uint64_t>& eval_epoch() {
  static std::atomic<std::uint64_t> epoch{0};
  return epoch;
}

inline std::uint64_t next_eval_epoch() noexcept {
  return eval_epoch().fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Per-thread reusable evaluation buffers: the valid-ops scratch vector every
/// decode needs plus the transposition cache. Obtain one thread_local per
/// state type and sync() it before use.
template <typename State>
struct EvalContext {
  std::vector<int> scratch;
  OpsCache<State> cache;

  /// Re-tags the context for (owner, epoch) and sizes the cache to
  /// `cache_entries`. Clears the cache when the owner changed so stale
  /// entries from another problem instance can never be served.
  void sync(const void* problem, std::uint64_t epoch, std::size_t cache_entries) {
    if (cache.capacity() < cache_entries) {
      cache.resize(cache_entries);
    } else if (cache_entries == 0 && cache.enabled()) {
      cache.resize(0);
    }
    if (problem != problem_ || epoch != epoch_) {
      cache.clear();
      problem_ = problem;
      epoch_ = epoch;
    }
  }

 private:
  const void* problem_ = nullptr;
  std::uint64_t epoch_ = 0;
};

}  // namespace gaplan::ga
