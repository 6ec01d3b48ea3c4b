#include "domains/sliding_tile.hpp"

#include <cstdio>
#include <stdexcept>

namespace gaplan::domains {

namespace {
constexpr const char* kOpNames[4] = {"blank up", "blank down", "blank left",
                                     "blank right"};

/// Manhattan distance per board size n: kManhattan[n][cell * kMaxCells +
/// tile] is the distance from `cell` to tile's goal cell (tile − 1), and 0
/// for the blank, so manhattan() is one load per cell with no division by n.
using DistanceTable =
    std::array<std::uint8_t, TileState::kMaxCells * TileState::kMaxCells>;

constexpr std::array<DistanceTable, 6> make_manhattan_tables() {
  std::array<DistanceTable, 6> tables{};
  for (int n = 2; n <= 5; ++n) {
    for (int cell = 0; cell < n * n; ++cell) {
      for (int tile = 1; tile < n * n; ++tile) {
        const int goal = tile - 1;
        const int dr = cell / n - goal / n;
        const int dc = cell % n - goal % n;
        tables[n][cell * TileState::kMaxCells + tile] =
            static_cast<std::uint8_t>((dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc));
      }
    }
  }
  return tables;
}

constexpr std::array<DistanceTable, 6> kManhattan = make_manhattan_tables();

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}
}  // namespace

SlidingTile::SlidingTile(int n, TileState initial) : n_(n), initial_(initial) {
  if (n < 2 || n > 5) throw std::invalid_argument("SlidingTile: n must be in [2, 5]");
  const int cells = n_ * n_;
  // Verify the board is a permutation of 0..n²−1 and locate the blank.
  std::array<bool, TileState::kMaxCells> seen{};
  int blank = -1;
  for (int i = 0; i < cells; ++i) {
    const int t = initial_.cells[i];
    if (t < 0 || t >= cells || seen[t]) {
      throw std::invalid_argument("SlidingTile: board is not a permutation");
    }
    seen[t] = true;
    if (t == 0) blank = i;
  }
  initial_.blank = static_cast<std::uint8_t>(blank);
  kernel_ = TileKernel(n_);
}

SlidingTile::SlidingTile(int n) : n_(n) {
  if (n < 2 || n > 5) throw std::invalid_argument("SlidingTile: n must be in [2, 5]");
  initial_ = goal_state();
  kernel_ = TileKernel(n_);
}

TileState SlidingTile::goal_state() const {
  TileState g;
  const int cells = n_ * n_;
  for (int i = 0; i < cells - 1; ++i) g.cells[i] = static_cast<std::uint8_t>(i + 1);
  g.cells[cells - 1] = 0;
  g.blank = static_cast<std::uint8_t>(cells - 1);
  return g;
}

bool SlidingTile::op_applicable(const TileState& s, int op) const noexcept {
  const int r = row(s.blank), c = col(s.blank);
  switch (op) {
    case kUp: return r > 0;
    case kDown: return r < n_ - 1;
    case kLeft: return c > 0;
    case kRight: return c < n_ - 1;
    default: return false;
  }
}

void SlidingTile::valid_ops(const TileState& s, std::vector<int>& out) const {
  out.clear();
  for (int op = 0; op < 4; ++op) {
    if (op_applicable(s, op)) out.push_back(op);
  }
}

void SlidingTile::apply(TileState& s, int op) const noexcept {
  kernel_.apply(s, op);  // the one neighbour-delta move
}

std::string SlidingTile::op_label(const TileState&, int op) const {
  return kOpNames[op];
}

int SlidingTile::manhattan(const TileState& s) const noexcept {
  const DistanceTable& dist = kManhattan[static_cast<std::size_t>(n_)];
  int md = 0;
  const int cells = n_ * n_;
  for (int i = 0; i < cells; ++i) {
    md += dist[static_cast<std::size_t>(i * TileState::kMaxCells + s.cells[i])];
  }
  return md;
}

int SlidingTile::linear_conflict(const TileState& s) const noexcept {
  // Two tiles conflict when both belong to the line they currently share but
  // in reversed order; each conflict adds two moves beyond Manhattan.
  int conflicts = 0;
  for (int r = 0; r < n_; ++r) {
    for (int c1 = 0; c1 < n_; ++c1) {
      const int t1 = s.cells[r * n_ + c1];
      if (t1 == 0 || row(t1 - 1) != r) continue;
      for (int c2 = c1 + 1; c2 < n_; ++c2) {
        const int t2 = s.cells[r * n_ + c2];
        if (t2 == 0 || row(t2 - 1) != r) continue;
        if (col(t1 - 1) > col(t2 - 1)) ++conflicts;
      }
    }
  }
  for (int c = 0; c < n_; ++c) {
    for (int r1 = 0; r1 < n_; ++r1) {
      const int t1 = s.cells[r1 * n_ + c];
      if (t1 == 0 || col(t1 - 1) != c) continue;
      for (int r2 = r1 + 1; r2 < n_; ++r2) {
        const int t2 = s.cells[r2 * n_ + c];
        if (t2 == 0 || col(t2 - 1) != c) continue;
        if (row(t1 - 1) > row(t2 - 1)) ++conflicts;
      }
    }
  }
  return manhattan(s) + 2 * conflicts;
}

double SlidingTile::goal_fitness(const TileState& s) const noexcept {
  // Eq. (6): 1 − MD/(D·T), D = 2(n−1), T = n²−1.
  const double bound = 2.0 * (n_ - 1) * static_cast<double>(tiles());
  return 1.0 - static_cast<double>(manhattan(s)) / bound;
}

bool SlidingTile::is_goal(const TileState& s) const noexcept {
  const int cells = n_ * n_;
  for (int i = 0; i < cells - 1; ++i) {
    if (s.cells[i] != i + 1) return false;
  }
  return true;
}

std::uint64_t SlidingTile::hash(const TileState& s) const noexcept {
  return fnv1a(s.cells.data(), static_cast<std::size_t>(n_ * n_));
}

bool SlidingTile::solvable(const TileState& s) const noexcept {
  // Johnson & Story: count inversions among the tiles (blank excluded).
  int inversions = 0;
  const int cells = n_ * n_;
  for (int i = 0; i < cells; ++i) {
    if (s.cells[i] == 0) continue;
    for (int j = i + 1; j < cells; ++j) {
      if (s.cells[j] != 0 && s.cells[j] < s.cells[i]) ++inversions;
    }
  }
  if (n_ % 2 == 1) {
    // Odd width: solvable iff inversions even.
    return inversions % 2 == 0;
  }
  // Even width (goal blank bottom-right): solvable iff inversions plus the
  // blank's 1-based row from the bottom is odd. Sanity anchor: the goal board
  // itself has 0 inversions and blank row 1 ⇒ odd ⇒ solvable.
  const int blank_row_from_bottom = n_ - row(s.blank);
  return (inversions + blank_row_from_bottom) % 2 == 1;
}

TileState SlidingTile::random_solvable(util::Rng& rng) const {
  const int cells = n_ * n_;
  std::vector<int> perm(cells);
  for (int i = 0; i < cells; ++i) perm[i] = i;
  TileState s;
  for (;;) {
    rng.shuffle(perm);
    for (int i = 0; i < cells; ++i) s.cells[i] = static_cast<std::uint8_t>(perm[i]);
    for (int i = 0; i < cells; ++i) {
      if (s.cells[i] == 0) s.blank = static_cast<std::uint8_t>(i);
    }
    if (!solvable(s)) {
      // Swapping two non-blank tiles flips permutation parity, making the
      // board solvable while staying uniform over the solvable class.
      int a = -1, b = -1;
      for (int i = 0; i < cells && b < 0; ++i) {
        if (s.cells[i] == 0) continue;
        (a < 0 ? a : b) = i;
      }
      std::swap(s.cells[a], s.cells[b]);
    }
    if (!is_goal(s)) return s;  // avoid degenerate already-solved instances
  }
}

TileState SlidingTile::scrambled(std::size_t steps, util::Rng& rng) const {
  TileState s = goal_state();
  std::vector<int> ops;
  int last = -1;
  static constexpr int kInverse[4] = {kDown, kUp, kRight, kLeft};
  for (std::size_t i = 0; i < steps; ++i) {
    valid_ops(s, ops);
    // Never immediately undo the previous move.
    if (last >= 0) {
      std::erase(ops, kInverse[last]);
    }
    const int op = ops[static_cast<std::size_t>(rng.below(ops.size()))];
    apply(s, op);
    last = op;
  }
  return s;
}

TileState SlidingTile::board(const std::vector<int>& tiles_in) const {
  const int cells = n_ * n_;
  if (static_cast<int>(tiles_in.size()) != cells) {
    throw std::invalid_argument("SlidingTile::board: wrong cell count");
  }
  TileState s;
  for (int i = 0; i < cells; ++i) {
    s.cells[i] = static_cast<std::uint8_t>(tiles_in[i]);
    if (tiles_in[i] == 0) s.blank = static_cast<std::uint8_t>(i);
  }
  // Reuse the constructor's permutation validation.
  return SlidingTile(n_, s).initial_state();
}

std::string SlidingTile::render(const TileState& s) const {
  std::string out;
  char buf[16];
  for (int r = 0; r < n_; ++r) {
    out += "+";
    for (int c = 0; c < n_; ++c) out += "----+";
    out += "\n|";
    for (int c = 0; c < n_; ++c) {
      const int t = s.cells[r * n_ + c];
      if (t == 0) {
        out += "    |";
      } else {
        std::snprintf(buf, sizeof(buf), " %2d |", t);
        out += buf;
      }
    }
    out += "\n";
  }
  out += "+";
  for (int c = 0; c < n_; ++c) out += "----+";
  out += "\n";
  return out;
}

}  // namespace gaplan::domains
