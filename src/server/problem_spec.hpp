// Problem specifications the planning service accepts over the wire.
//
// A ProblemSpec is a small, canonical description of a planning problem —
// domain kind plus parameters — that (a) fully determines the start and goal
// states, (b) fingerprints deterministically for the plan cache, and (c)
// instantiates the corresponding domain object on demand through
// with_problem(), the one place a spec becomes a domain, so every consumer
// plans the puzzle the fingerprint names. Specs parse from the same
// `name:arg[:arg]` strings planner_cli uses:
//
//   hanoi:DISKS[:INITIAL_STAKE:GOAL_STAKE]   Towers of Hanoi
//   sokoban:LEVEL                            built-in Sokoban catalog level
//   tiles:N[:SCRAMBLE_SEED]                  random solvable N x N puzzle
//
// The Sokoban catalog is a fixed set of small levels compiled into the
// service, so a level index is a complete (and cheap to fingerprint) problem
// description; arbitrary ASCII levels would be a straightforward extension.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "domains/hanoi.hpp"
#include "domains/sliding_tile.hpp"
#include "domains/sokoban.hpp"
#include "server/fingerprint.hpp"
#include "util/rng.hpp"

namespace gaplan::serve {

enum class ProblemKind { kHanoi, kSokoban, kTiles };

const char* to_string(ProblemKind k) noexcept;

struct ProblemSpec {
  ProblemKind kind = ProblemKind::kHanoi;
  // hanoi
  int disks = 4;
  int initial_stake = 0;
  int goal_stake = 1;
  // sokoban
  std::size_t level = 0;
  // tiles
  int tiles_n = 3;
  std::uint64_t scramble_seed = 7;

  /// The canonical "name:arg" rendering (parse(spec.text()) round-trips).
  std::string text() const;

  /// Folds the spec (kind tag + every parameter) into a fingerprint.
  void mix_into(FingerprintHasher& h) const;

  /// Parses a spec string; returns std::nullopt (with a reason) on malformed
  /// or out-of-range input, so the service can reject instead of throw.
  static std::optional<ProblemSpec> parse(const std::string& text,
                                          std::string& error);
};

/// Number of levels in the built-in Sokoban catalog.
std::size_t sokoban_catalog_size() noexcept;

/// Rows of catalog level `index` (precondition: index < catalog size).
const std::vector<std::string>& sokoban_catalog_level(std::size_t index);

/// Builds the domain `spec` describes and returns `fn(domain)`; the domain is
/// passed as an rvalue, so `fn` may take it by value and keep it. Every
/// branch's result converts to what `fn` returns for Hanoi. A tiles spec's
/// puzzle is the solvable scramble drawn from its scramble seed.
template <typename Fn>
std::invoke_result_t<Fn, domains::Hanoi> with_problem(const ProblemSpec& spec,
                                                      Fn&& fn) {
  switch (spec.kind) {
    case ProblemKind::kHanoi:
      return std::forward<Fn>(fn)(
          domains::Hanoi(spec.disks, spec.initial_stake, spec.goal_stake));
    case ProblemKind::kSokoban:
      return std::forward<Fn>(fn)(
          domains::Sokoban(sokoban_catalog_level(spec.level)));
    case ProblemKind::kTiles: {
      util::Rng scramble(spec.scramble_seed);
      const domains::SlidingTile gen(spec.tiles_n);
      return std::forward<Fn>(fn)(
          domains::SlidingTile(spec.tiles_n, gen.random_solvable(scramble)));
    }
  }
  throw std::logic_error("unknown problem kind");
}

/// GA defaults tuned per problem shape (genome length scales with the
/// domain's solution depth, as planner_cli does). Fields the caller already
/// customised are preserved; only initial_length/max_length left at their
/// GaConfig defaults are retuned.
ga::GaConfig tuned_config(const ProblemSpec& spec, ga::GaConfig base);

}  // namespace gaplan::serve
