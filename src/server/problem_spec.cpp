#include "server/problem_spec.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>

namespace gaplan::serve {

namespace {

/// Small push-level Sokoban instances: solvable, a few boxes, mixed
/// difficulty — the service's stock non-Hanoi workload.
const std::array<std::vector<std::string>, 4>& catalog() {
  static const std::array<std::vector<std::string>, 4> levels = {{
      {
          "#####",
          "#@$o#",
          "#####",
      },
      {
          "#######",
          "#.....#",
          "#.$.$.#",
          "#..@..#",
          "#.o.o.#",
          "#######",
      },
      {
          "########",
          "#..o...#",
          "#..$...#",
          "#.o$@..#",
          "#......#",
          "########",
      },
      {
          "########",
          "#......#",
          "#.$..$.#",
          "#.o@o..#",
          "#......#",
          "########",
      },
  }};
  return levels;
}

bool parse_ll(const std::string& s, long long& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::vector<std::string> split_colon(const std::string& text) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : text) {
    if (c == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

}  // namespace

std::size_t sokoban_catalog_size() noexcept { return catalog().size(); }

const std::vector<std::string>& sokoban_catalog_level(std::size_t index) {
  return catalog()[index];
}

std::string ProblemSpec::text() const {
  switch (kind) {
    case ProblemKind::kHanoi:
      return "hanoi:" + std::to_string(disks) + ":" +
             std::to_string(initial_stake) + ":" + std::to_string(goal_stake);
    case ProblemKind::kSokoban:
      return "sokoban:" + std::to_string(level);
    case ProblemKind::kTiles:
      return "tiles:" + std::to_string(tiles_n) + ":" +
             std::to_string(scramble_seed);
  }
  return "?";
}

void ProblemSpec::mix_into(FingerprintHasher& h) const {
  h.mix(static_cast<std::uint64_t>(kind));
  switch (kind) {
    case ProblemKind::kHanoi:
      h.mix_signed(disks);
      h.mix_signed(initial_stake);
      h.mix_signed(goal_stake);
      break;
    case ProblemKind::kSokoban:
      h.mix(std::uint64_t{level});
      // Hash the level content too, so a catalog edit can never revive a
      // stale persisted fingerprint for different walls.
      for (const std::string& row : sokoban_catalog_level(level)) h.mix(row);
      break;
    case ProblemKind::kTiles:
      h.mix_signed(tiles_n);
      h.mix(scramble_seed);
      break;
  }
}

std::optional<ProblemSpec> ProblemSpec::parse(const std::string& text,
                                              std::string& error) {
  const std::vector<std::string> parts = split_colon(text);
  ProblemSpec spec;
  auto arg = [&](std::size_t i, long long fallback, long long lo, long long hi,
                 const char* what, long long& out) {
    if (parts.size() <= i || parts[i].empty()) {
      out = fallback;
      return true;
    }
    if (!parse_ll(parts[i], out)) {
      error = std::string(what) + " is not an integer in '" + text + "'";
      return false;
    }
    if (out < lo || out > hi) {
      error = std::string(what) + " out of range in '" + text + "'";
      return false;
    }
    return true;
  };
  // A field past the kind's last is rejected, not ignored.
  auto surplus = [&](std::size_t fields, const char* form) {
    if (parts.size() <= fields) return false;
    error = "too many fields in '" + text + "' (want " + form + ")";
    return true;
  };
  long long v = 0;
  if (parts[0] == "hanoi") {
    spec.kind = ProblemKind::kHanoi;
    if (surplus(4, "hanoi:DISKS[:INITIAL_STAKE:GOAL_STAKE]")) {
      return std::nullopt;
    }
    if (!arg(1, 4, 1, 12, "disks", v)) return std::nullopt;
    spec.disks = static_cast<int>(v);
    if (!arg(2, 0, 0, 2, "initial stake", v)) return std::nullopt;
    spec.initial_stake = static_cast<int>(v);
    if (!arg(3, 1, 0, 2, "goal stake", v)) return std::nullopt;
    spec.goal_stake = static_cast<int>(v);
    if (spec.initial_stake == spec.goal_stake) {
      error = "initial and goal stake coincide in '" + text + "'";
      return std::nullopt;
    }
    return spec;
  }
  if (parts[0] == "sokoban") {
    spec.kind = ProblemKind::kSokoban;
    if (surplus(2, "sokoban:LEVEL")) return std::nullopt;
    const long long max_level =
        static_cast<long long>(sokoban_catalog_size()) - 1;
    if (!arg(1, 0, 0, max_level, "level", v)) return std::nullopt;
    spec.level = static_cast<std::size_t>(v);
    return spec;
  }
  if (parts[0] == "tiles") {
    spec.kind = ProblemKind::kTiles;
    if (surplus(3, "tiles:N[:SCRAMBLE_SEED]")) return std::nullopt;
    if (!arg(1, 3, 2, 5, "size", v)) return std::nullopt;
    spec.tiles_n = static_cast<int>(v);
    if (!arg(2, 7, 0, std::numeric_limits<long long>::max(), "scramble seed",
             v)) {
      return std::nullopt;
    }
    spec.scramble_seed = static_cast<std::uint64_t>(v);
    return spec;
  }
  error = "unknown problem kind '" + parts[0] + "' (want hanoi|sokoban|tiles)";
  return std::nullopt;
}

ga::GaConfig tuned_config(const ProblemSpec& spec, ga::GaConfig base) {
  const ga::GaConfig stock;
  if (base.initial_length != stock.initial_length ||
      base.max_length != stock.max_length) {
    return base;  // caller chose explicit lengths; respect them
  }
  std::size_t depth = 32;
  switch (spec.kind) {
    case ProblemKind::kHanoi:
      depth = (std::size_t{1} << spec.disks) - 1;
      break;
    case ProblemKind::kSokoban:
      depth = 16;
      break;
    case ProblemKind::kTiles:
      depth = static_cast<std::size_t>(4 * spec.tiles_n * spec.tiles_n);
      break;
  }
  base.initial_length = std::max<std::size_t>(8, depth);
  base.max_length = 10 * base.initial_length;
  return base;
}

}  // namespace gaplan::serve
