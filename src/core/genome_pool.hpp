// Struct-of-arrays genome pool: the population storage of the GA engine's
// PhaseRunner.
//
// Storing the population as vector<Individual> makes every genome its own
// heap vector, so reproduction churns through per-individual allocations and
// the decode pass pointer-chases a different cache line per individual. The
// pool flattens all genomes of one population into a single contiguous gene
// array of fixed-stride lanes — lane i occupies
// genes[i*stride .. i*stride+max_length) — with the per-individual metadata
// (genome length, fitness, and the recycled Evaluation records that carry the
// dirty-prefix checkpoints) in parallel arrays indexed by slot.
//
// The phase runner double-buffers two pools: reproduction splices children
// into the retired pool's lanes with plain contiguous copies (no vector
// churn), then the pools swap. Evaluation records keep their vector capacity
// across generations and phases (Evaluation::reset()), so steady-state
// reproduction and decoding allocate nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/individual.hpp"

namespace gaplan::ga {

template <typename State>
class GenomePool {
 public:
  /// (Re)shapes the pool to `slots` lanes of `stride` genes. Gene storage is
  /// resized, not cleared; lengths reset to 0; Evaluation record buffers are
  /// kept (they recycle across phases) but each record is invalidated: a
  /// reshaped pool must never present a previous phase's decode — with its
  /// stale checkpoints and dirty-prefix bookkeeping — as a resumable parent,
  /// which is exactly what happens when the population shrinks between phases
  /// and surviving slot indices still hold decoded=true records.
  void reset(std::size_t slots, std::size_t stride) {
    stride_ = stride;
    genes_.resize(slots * stride);
    len_.assign(slots, 0);
    fitness_.assign(slots, 0.0);
    evals_.resize(slots);
    for (auto& ev : evals_) ev.reset();
  }

  std::size_t slots() const noexcept { return len_.size(); }
  std::size_t stride() const noexcept { return stride_; }

  /// The genome currently stored in slot `i` (length len(i)).
  std::span<const Gene> genome(std::size_t i) const noexcept {
    return {genes_.data() + i * stride_, static_cast<std::size_t>(len_[i])};
  }
  std::span<Gene> genome_mut(std::size_t i) noexcept {
    return {genes_.data() + i * stride_, static_cast<std::size_t>(len_[i])};
  }

  /// Slot i's full lane (capacity = stride), for writers that set the length
  /// afterwards via set_len.
  Gene* lane(std::size_t i) noexcept { return genes_.data() + i * stride_; }

  std::size_t len(std::size_t i) const noexcept { return len_[i]; }
  void set_len(std::size_t i, std::size_t n) noexcept {
    assert(n <= stride_);
    len_[i] = static_cast<std::uint32_t>(n);
  }

  /// Copies a genome into slot `i` (truncating to the lane stride, which the
  /// engine sizes to GaConfig::max_length so truncation never fires).
  void assign(std::size_t i, std::span<const Gene> g) noexcept {
    const std::size_t n = std::min(g.size(), stride_);
    std::copy_n(g.data(), n, lane(i));
    len_[i] = static_cast<std::uint32_t>(n);
  }

  Evaluation<State>& eval(std::size_t i) noexcept { return evals_[i]; }
  const Evaluation<State>& eval(std::size_t i) const noexcept { return evals_[i]; }

  /// Fitness metadata lane: one combined fitness per slot, the input of
  /// tournament/roulette selection.
  std::vector<double>& fitness() noexcept { return fitness_; }
  const std::vector<double>& fitness() const noexcept { return fitness_; }

  void swap(GenomePool& other) noexcept {
    std::swap(stride_, other.stride_);
    genes_.swap(other.genes_);
    len_.swap(other.len_);
    fitness_.swap(other.fitness_);
    evals_.swap(other.evals_);
  }

 private:
  std::size_t stride_ = 0;
  std::vector<Gene> genes_;            ///< slots * stride, lane-major
  std::vector<std::uint32_t> len_;     ///< genome length per slot
  std::vector<double> fitness_;        ///< combined fitness per slot
  std::vector<Evaluation<State>> evals_;  ///< recycled decode records per slot
};

}  // namespace gaplan::ga
