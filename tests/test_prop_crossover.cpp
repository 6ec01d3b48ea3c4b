// State-aware cut picking as a property (tests/prop/). The branch-free match
// scan of detail::pick_state_aware_cuts must draw exactly what the branchy
// loop it replaced drew, kept below as the oracle: over random key
// trajectories with 1-8 distinct keys (valid-op signatures repeat that
// often on Hanoi), random parent lengths, empty and length-1 key vectors and
// the excluded boundary cut (c1 == a_len, c2 == 0), both return the same
// CutPoints, leave the same match_buffer contents and leave the Rng in the
// same state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/crossover.hpp"
#include "prop/prop.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;

/// The match scan as it was before it went branch-free: one compare-and-push
/// per position, the excluded boundary cut tested inside the loop.
ga::detail::CutPoints oracle_cuts(std::size_t a_len,
                                  const std::vector<std::uint64_t>& keys_a,
                                  std::size_t b_len,
                                  const std::vector<std::uint64_t>& keys_b,
                                  util::Rng& rng,
                                  std::vector<std::size_t>& match_buffer) {
  if (a_len < 2 || b_len < 2) return {};
  const std::size_t decoded_a = keys_a.empty() ? 0 : keys_a.size() - 1;
  const std::size_t decoded_b = keys_b.empty() ? 0 : keys_b.size() - 1;
  const std::size_t hi_a = std::min(a_len, decoded_a);
  const std::size_t hi_b = std::min(b_len, decoded_b);
  if (hi_a < 1 || hi_b < 1) return {};

  const std::size_t c1 = 1 + static_cast<std::size_t>(rng.below(hi_a));
  const std::uint64_t want = keys_a[c1];
  match_buffer.clear();
  for (std::size_t c2 = 0; c2 <= hi_b; ++c2) {
    if (keys_b[c2] == want && !(c1 == a_len && c2 == 0)) {
      match_buffer.push_back(c2);
    }
  }
  if (match_buffer.empty()) return {};
  const std::size_t c2 =
      match_buffer[static_cast<std::size_t>(rng.below(match_buffer.size()))];
  return {c1, c2, true};
}

struct CutCase {
  std::size_t a_len = 0;
  std::size_t b_len = 0;
  std::vector<std::uint64_t> keys_a;
  std::vector<std::uint64_t> keys_b;
  std::vector<std::size_t> buffer;  ///< match_buffer contents before the call
  std::uint64_t rng_seed = 0;
};

/// Runs the picker and the oracle on one case from identical inputs and
/// requires identical outputs, buffers and Rng streams.
void expect_same_cuts(const CutCase& c) {
  util::Rng rng_got(c.rng_seed);
  util::Rng rng_want(c.rng_seed);
  std::vector<std::size_t> buf_got = c.buffer;
  std::vector<std::size_t> buf_want = c.buffer;
  const ga::detail::CutPoints got = ga::detail::pick_state_aware_cuts(
      c.a_len, c.keys_a, c.b_len, c.keys_b, rng_got, buf_got);
  const ga::detail::CutPoints want =
      oracle_cuts(c.a_len, c.keys_a, c.b_len, c.keys_b, rng_want, buf_want);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.c1, want.c1);
  EXPECT_EQ(got.c2, want.c2);
  EXPECT_EQ(buf_got, buf_want);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(rng_got(), rng_want()) << "Rng stream diverged at draw " << k;
  }
}

/// A key trajectory: empty, length 1, or 2-200 keys drawn from `pool`.
std::vector<std::uint64_t> key_trajectory(const std::vector<std::uint64_t>& pool,
                                          util::Rng& rng) {
  const std::uint64_t shape = rng.below(4);
  const std::size_t n = shape == 0   ? 0
                        : shape == 1 ? 1
                                     : 2 + static_cast<std::size_t>(rng.below(199));
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = pool[rng.below(pool.size())];
  return keys;
}

/// A parent length for a key trajectory: tiny (0-3, where c1 == a_len is
/// likely), exactly the decoded prefix, or anything up to a few past it.
std::size_t parent_length(std::size_t keys, util::Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return static_cast<std::size_t>(rng.below(4));
    case 1:
      return keys == 0 ? 0 : keys - 1;
    default:
      return static_cast<std::size_t>(rng.below(keys + 8));
  }
}

prop::Gen<CutCase> cut_case() {
  prop::Gen<CutCase> g;
  g.sample = [](util::Rng& rng) {
    std::vector<std::uint64_t> pool(1 + rng.below(8));
    for (auto& k : pool) k = rng();
    CutCase c;
    c.keys_a = key_trajectory(pool, rng);
    c.keys_b = key_trajectory(pool, rng);
    c.a_len = parent_length(c.keys_a.size(), rng);
    c.b_len = parent_length(c.keys_b.size(), rng);
    c.buffer.resize(rng.below(5));
    for (auto& v : c.buffer) v = static_cast<std::size_t>(rng.below(1000));
    c.rng_seed = rng();
    return c;
  };
  g.shrink = [](const CutCase& c) {
    std::vector<CutCase> out;
    for (const auto keys : {&CutCase::keys_a, &CutCase::keys_b}) {
      if ((c.*keys).size() > 2) {
        CutCase half = c;
        (half.*keys).resize((c.*keys).size() / 2);
        out.push_back(std::move(half));
      }
    }
    if (!c.buffer.empty()) {
      CutCase bare = c;
      bare.buffer.clear();
      out.push_back(std::move(bare));
    }
    return out;
  };
  g.show = [](const CutCase& c) {
    std::string s = "a_len=" + std::to_string(c.a_len) +
                    " keys_a=" + std::to_string(c.keys_a.size()) +
                    " b_len=" + std::to_string(c.b_len) +
                    " keys_b=" + std::to_string(c.keys_b.size()) +
                    " buffer=" + std::to_string(c.buffer.size()) +
                    " rng_seed=" + std::to_string(c.rng_seed);
    // The draw the picker will make, to spot the boundary case in reports.
    const std::size_t hi_a =
        std::min(c.a_len, c.keys_a.empty() ? 0 : c.keys_a.size() - 1);
    if (c.a_len >= 2 && c.b_len >= 2 && hi_a >= 1 && c.keys_b.size() >= 2) {
      util::Rng rng(c.rng_seed);
      const std::size_t c1 = 1 + static_cast<std::size_t>(rng.below(hi_a));
      s += " c1=" + std::to_string(c1);
      if (c1 == c.a_len && c.keys_b[0] == c.keys_a[c1]) {
        s += " (boundary match at c2=0 excluded)";
      }
    }
    return s;
  };
  return g;
}

TEST(PropCrossover, StateAwareCutsMatchBranchyOracle) {
  prop::check("state_aware_cuts_oracle", cut_case(), expect_same_cuts,
              {.iterations = 400});
}

TEST(PropCrossover, BoundaryCutExcludedAsInOracle) {
  // Every c1 draw hits a's end half the time here, and b's key at 0 equals
  // a's key there, so the excluded (c1 == a_len, c2 == 0) cut is live.
  const std::uint64_t x = 0x1234, y = 0x5678;
  CutCase c;
  c.a_len = 2;
  c.keys_a = {y, x, y};
  c.b_len = 3;
  c.keys_b = {y, x, y, y};
  std::size_t boundary = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    c.rng_seed = seed;
    expect_same_cuts(c);
    util::Rng rng(seed);
    std::vector<std::size_t> buf;
    const ga::detail::CutPoints cut = ga::detail::pick_state_aware_cuts(
        c.a_len, c.keys_a, c.b_len, c.keys_b, rng, buf);
    if (cut.c1 == c.a_len) {
      ++boundary;
      EXPECT_EQ(buf, (std::vector<std::size_t>{2, 3})) << "seed " << seed;
    }
  }
  EXPECT_GT(boundary, 0u);
}

}  // namespace
