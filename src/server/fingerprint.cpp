#include "server/fingerprint.hpp"

#include <bit>
#include <cstdio>

#include "util/rng.hpp"

namespace gaplan::serve {

std::string Fingerprint::hex() const {
  char buf[36];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

std::optional<Fingerprint> parse_fingerprint_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t i = 0; i < 16; ++i) {
      const char c = hex[w * 16 + i];
      std::uint64_t nibble;
      if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      else return std::nullopt;  // uppercase rejected: hex() is the format
      words[w] = (words[w] << 4) | nibble;
    }
  }
  return Fingerprint{words[0], words[1]};
}

FingerprintHasher::FingerprintHasher() noexcept {
  // Distinct nonzero stream keys so hi/lo evolve independently from word one.
  fp_.hi = 0x9E3779B97F4A7C15ULL;
  fp_.lo = 0xC2B2AE3D27D4EB4FULL;
}

void FingerprintHasher::mix(std::uint64_t v) noexcept {
  std::uint64_t a = fp_.hi ^ v;
  std::uint64_t b = fp_.lo ^ (v * 0x9E3779B97F4A7C15ULL + 1);
  fp_.hi = util::splitmix64(a);
  fp_.lo = util::splitmix64(b);
}

void FingerprintHasher::mix(double v) noexcept {
  // Canonicalize before digesting: all NaN payloads collapse to one quiet
  // NaN and -0.0 to +0.0. Raw bit_cast would let NaN-payload variants split
  // cache entries for value-equal configs (and -0.0 alias away from 0.0)
  // even though lint rejects non-finite knobs at admission.
  std::uint64_t bits;
  if (v != v) {
    bits = 0x7FF8000000000000ULL;
  } else {
    bits = std::bit_cast<std::uint64_t>(v + 0.0);
  }
  mix(bits);
}

void FingerprintHasher::mix(std::string_view s) noexcept {
  mix(static_cast<std::uint64_t>(s.size()));
  std::uint64_t word = 0;
  int filled = 0;
  for (const char c : s) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++filled == 8) {
      mix(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled > 0) mix(word);
}

void mix_config(FingerprintHasher& h, const ga::GaConfig& cfg) {
  h.mix(std::uint64_t{cfg.population_size});
  h.mix(std::uint64_t{cfg.generations});
  h.mix(std::uint64_t{cfg.phases});
  h.mix(std::uint64_t{cfg.initial_length});
  h.mix(std::uint64_t{cfg.max_length});
  h.mix(static_cast<std::uint64_t>(cfg.crossover));
  h.mix(static_cast<std::uint64_t>(cfg.state_match));
  h.mix(cfg.crossover_rate);
  h.mix(cfg.mutation_rate);
  h.mix(static_cast<std::uint64_t>(cfg.selection));
  h.mix(std::uint64_t{cfg.tournament_size});
  h.mix(static_cast<std::uint64_t>(cfg.replacement));
  h.mix(std::uint64_t{cfg.elite_count});
  h.mix(cfg.seed_fraction);
  h.mix(cfg.seed_greediness);
  h.mix(cfg.goal_weight);
  h.mix(cfg.cost_weight);
  h.mix(static_cast<std::uint64_t>(cfg.cost_fitness));
  h.mix(static_cast<std::uint64_t>(cfg.encoding));
  h.mix(cfg.match_weight);
  h.mix(static_cast<std::uint64_t>(cfg.truncate_at_goal));
  h.mix(static_cast<std::uint64_t>(cfg.stop_on_valid));
  // incremental_eval / eval_checkpoint_stride / ops_cache_size change *how*
  // evaluation runs, never its result (bit-identical by design), so they
  // are deliberately left out: toggling them must still hit the cache.
  h.mix(static_cast<std::uint64_t>(cfg.monotone_phases));
}

}  // namespace gaplan::serve
