// Wire codec for cross-process island migrants.
//
// A migrant batch ships *genomes only*. The receiver re-evaluates each
// genome cold through the normal fitness path (evaluate_into), which is
// bit-identical to the sender's incremental or batched-kernel evaluation
// (tests/test_golden.cpp cold-evaluates every reported genome) — so
// shipping Evaluation fields (fitness, plan, per-state traces) would be
// redundant bytes that could only ever disagree with the receiver's own
// decode. Genes are doubles but travel as 16-hex-digit u64 bit patterns:
// decimal round-tripping could perturb the low bits and break the
// determinism contract of sharded island runs.
//
// Frame grammar (one line, embeddable in a wire-message string field):
//
//   v1;<count>;<len>:<len*16 hex digits>;...;c=<16 hex digits>
//
// The trailing checksum is a splitmix64 chain over every length and gene
// word, so a corrupted or truncated frame is rejected rather than decoded
// into a plausible-looking population. parse_migrants also bounds count and
// genome length before allocating — a hostile frame cannot request gigabyte
// reservations (exercised by the adversarial property tests).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/individual.hpp"

namespace gaplan::dist {

struct MigrantBatch {
  std::vector<ga::Genome> genomes;

  bool operator==(const MigrantBatch&) const = default;
};

/// Hard bounds enforced by parse_migrants before any allocation.
inline constexpr std::size_t kMaxMigrants = 4096;
inline constexpr std::size_t kMaxMigrantGenes = 65536;

std::string encode_migrants(const MigrantBatch& batch);

/// Decodes a frame; std::nullopt (with `error` filled when given) on any
/// malformed, out-of-bounds, or checksum-failing input.
std::optional<MigrantBatch> parse_migrants(std::string_view frame,
                                           std::string* error = nullptr);

}  // namespace gaplan::dist
