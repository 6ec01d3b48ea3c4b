// Server-plane invariants as properties (tests/prop/): NDJSON wire
// encode→parse roundtrip, adversarial-frame robustness, plan-cache
// fingerprint stability, the LRU eviction fuzz (migrated from
// tests/test_server.cpp PlanCache.EvictionUnderPressureFuzz), and
// serve ≡ direct-run bit-identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/multiphase.hpp"
#include "domains/hanoi.hpp"
#include "domains/sliding_tile.hpp"
#include "domains/sokoban.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "server/fingerprint.hpp"
#include "server/plan_cache.hpp"
#include "server/plan_service.hpp"
#include "server/problem_spec.hpp"
#include "server/request_codec.hpp"
#include "server/server_config.hpp"
#include "server/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;
using namespace gaplan::serve;

// ---------------------------------------------------------------------------
// Invariant: wire roundtrip — everything JsonWriter encodes, parse_wire_message
// recovers exactly: same keys, same typed values, nulls absent from every map.
// ---------------------------------------------------------------------------

TEST(PropServer, WireEncodeParseRoundtrip) {
  prop::check(
      "wire_roundtrip", prop::wire_case(),
      [](const prop::WireCase& c) {
        const std::string line = prop::render_wire(c);
        WireMessage msg;
        std::string error;
        ASSERT_TRUE(parse_wire_message(line, msg, error))
            << line << "\n  error: " << error;
        // Last writer wins on duplicate keys, like the parser.
        std::map<std::string, const prop::WireField*> want;
        for (const auto& f : c.fields) want[f.key] = &f;
        std::size_t strings = 0, numbers = 0, bools = 0;
        for (const auto& [key, f] : want) {
          switch (f->kind) {
            case 0: {
              ++strings;
              const std::string* got = msg.get_string(key);
              ASSERT_NE(got, nullptr) << key;
              EXPECT_EQ(*got, f->str) << key;
              break;
            }
            case 1: {
              ++numbers;
              const auto got = msg.get_number(key);
              ASSERT_TRUE(got.has_value()) << key;
              EXPECT_DOUBLE_EQ(*got, f->num) << key;
              break;
            }
            case 2: {
              ++bools;
              const auto got = msg.get_bool(key);
              ASSERT_TRUE(got.has_value()) << key;
              EXPECT_EQ(*got, f->flag) << key;
              break;
            }
            default:  // null: representable on the wire, absent when parsed
              EXPECT_EQ(msg.get_string(key), nullptr) << key;
              EXPECT_FALSE(msg.get_number(key).has_value()) << key;
              EXPECT_FALSE(msg.get_bool(key).has_value()) << key;
              break;
          }
        }
        EXPECT_EQ(msg.strings.size(), strings);
        EXPECT_EQ(msg.numbers.size(), numbers);
        EXPECT_EQ(msg.bools.size(), bools);
      },
      {.iterations = 200});
}

// ---------------------------------------------------------------------------
// Invariant: adversarial frames never crash, hang, or silently truncate —
// parse either succeeds or fails with a non-empty error; oversized frames
// always fail (the satellite-#1 parser hardening: truncation, embedded
// control bytes, garbage injection, unterminated numbers, byte flips).
// ---------------------------------------------------------------------------

TEST(PropServer, AdversarialFramesFailCleanlyOrParse) {
  prop::check(
      "wire_adversarial_frames", prop::adversarial_frame(),
      [](const prop::AdversarialFrame& a) {
        WireMessage msg;
        std::string error;
        const bool ok = parse_wire_message(a.line, msg, error);
        if (!ok) {
          EXPECT_FALSE(error.empty()) << "rejection must say why";
        }
        if (a.line.size() > kMaxWireFrameBytes) {
          EXPECT_FALSE(ok) << "oversized frame must be rejected";
        }
        if (a.mutation == "control-char") {
          // A raw control byte is never legal NDJSON: outside strings it is
          // not valid syntax, inside strings RFC 8259 requires an escape.
          EXPECT_FALSE(ok) << "raw control byte accepted";
        }
      },
      {.iterations = 300});
}

// ---------------------------------------------------------------------------
// Invariant: fingerprint stability — deterministic for equal requests,
// different for significant-field changes, *unchanged* under the evaluation
// knobs that only pick execution strategy (layout parity means a pooled run
// answers a scalar request bit-for-bit, so those knobs must share a cache
// entry), and canonical over double representations (-0.0 == 0.0; all NaN
// payloads collapse — the satellite-#3 fix).
// ---------------------------------------------------------------------------

struct FingerprintCase {
  ga::GaConfig cfg;
  std::uint64_t seed = 1;
  int spec = 0;
};

const char* kSpecs[] = {"hanoi:4", "hanoi:5", "tiles:3:9", "sokoban:1"};

prop::Gen<FingerprintCase> fingerprint_case() {
  prop::Gen<FingerprintCase> g;
  g.sample = [](util::Rng& rng) {
    FingerprintCase c;
    c.cfg = prop::random_config(rng);
    c.seed = rng();
    c.spec = static_cast<int>(rng.below(4));
    return c;
  };
  g.show = [](const FingerprintCase& c) {
    return std::string(kSpecs[c.spec]) + " seed=" + std::to_string(c.seed) +
           " " + c.cfg.summary();
  };
  return g;
}

PlanRequest request_of(const FingerprintCase& c) {
  PlanRequest req;
  std::string err;
  const auto spec = ProblemSpec::parse(kSpecs[c.spec], err);
  EXPECT_TRUE(spec.has_value()) << err;
  req.problem = *spec;
  req.config = c.cfg;
  req.seed = c.seed;
  return req;
}

// ---------------------------------------------------------------------------
// Invariant: every in-range wire integer round-trips — a PlanRequest whose
// integer fields lie anywhere in their exact wire range (see
// kMaxExactWireInteger) renders and parses back to the same values.
// ---------------------------------------------------------------------------

struct IntegerFieldsCase {
  std::vector<std::uint64_t> sizes;  ///< pop, gens, phases, initlen, maxlen
  std::uint64_t seed = 0;
  std::uint64_t trace = 0;
  std::uint64_t parent_span = 0;
  int priority = 0;
};

/// An integer in [lo, hi], biased toward the bounds and small values.
std::int64_t boundary_biased(util::Rng& rng, std::int64_t lo, std::int64_t hi) {
  switch (rng.below(5)) {
    case 0: return lo;
    case 1: return hi;
    case 2: return std::clamp<std::int64_t>(rng.range(-5, 5), lo, hi);
    default: return rng.range(lo, hi);
  }
}

prop::Gen<IntegerFieldsCase> integer_fields_case() {
  prop::Gen<IntegerFieldsCase> g;
  g.sample = [](util::Rng& rng) {
    const std::int64_t hi = kMaxExactWireInteger;
    IntegerFieldsCase c;
    for (int i = 0; i < 5; ++i) {
      c.sizes.push_back(
          static_cast<std::uint64_t>(boundary_biased(rng, 0, hi)));
    }
    c.seed = static_cast<std::uint64_t>(boundary_biased(rng, 0, hi));
    c.trace = static_cast<std::uint64_t>(boundary_biased(rng, 0, hi));
    c.parent_span = static_cast<std::uint64_t>(boundary_biased(rng, 0, hi));
    c.priority = static_cast<int>(
        boundary_biased(rng, std::numeric_limits<int>::min(),
                        std::numeric_limits<int>::max()));
    return c;
  };
  g.show = [](const IntegerFieldsCase& c) {
    std::string s = "sizes:";
    for (const auto v : c.sizes) s += " " + std::to_string(v);
    return s + " seed=" + std::to_string(c.seed) +
           " trace=" + std::to_string(c.trace) +
           " parent_span=" + std::to_string(c.parent_span) +
           " priority=" + std::to_string(c.priority);
  };
  return g;
}

TEST(PropServer, InRangeWireIntegersRoundTrip) {
  prop::check(
      "wire_integers_roundtrip", integer_fields_case(),
      [](const IntegerFieldsCase& c) {
        std::string err;
        PlanRequest req;
        req.problem = *ProblemSpec::parse("hanoi:3", err);
        req.config.population_size = c.sizes[0];
        req.config.generations = c.sizes[1];
        req.config.phases = c.sizes[2];
        req.config.initial_length = c.sizes[3];
        req.config.max_length = c.sizes[4];
        req.seed = c.seed;
        req.trace = c.trace;
        req.parent_span = c.parent_span;
        req.priority = c.priority;

        const std::string line = render_submit_line(req);
        WireMessage msg;
        ASSERT_TRUE(parse_wire_message(line, msg, err)) << err;
        PlanRequest back;
        ASSERT_TRUE(parse_plan_request(msg, back, err)) << err << "\n" << line;
        EXPECT_EQ(back.config.population_size, req.config.population_size);
        EXPECT_EQ(back.config.generations, req.config.generations);
        EXPECT_EQ(back.config.phases, req.config.phases);
        EXPECT_EQ(back.config.initial_length, req.config.initial_length);
        EXPECT_EQ(back.config.max_length, req.config.max_length);
        EXPECT_EQ(back.seed, req.seed);
        EXPECT_EQ(back.trace, req.trace);
        EXPECT_EQ(back.parent_span, req.parent_span);
        EXPECT_EQ(back.priority, req.priority);
      },
      {.iterations = 200});
}

TEST(PropServer, FingerprintIsStableAndDiscriminating) {
  prop::check(
      "fingerprint_stability", fingerprint_case(),
      [](const FingerprintCase& c) {
        const PlanRequest req = request_of(c);
        const Fingerprint fp = PlanService::fingerprint(req);
        EXPECT_EQ(fp, PlanService::fingerprint(req)) << "must be deterministic";

        // Significant fields must change the digest.
        {
          PlanRequest r = req;
          r.seed = req.seed + 1;
          EXPECT_NE(PlanService::fingerprint(r), fp) << "seed ignored";
        }
        {
          PlanRequest r = req;
          r.config.generations += 1;
          EXPECT_NE(PlanService::fingerprint(r), fp) << "generations ignored";
        }
        {
          PlanRequest r = req;
          r.config.mutation_rate =
              std::nextafter(req.config.mutation_rate, 1.0);
          EXPECT_NE(PlanService::fingerprint(r), fp) << "mutation_rate ignored";
        }

        // Execution-strategy knobs must NOT change it: evaluation is
        // bit-identical either way, so they share a cache slot.
        {
          PlanRequest r = req;
          r.config.incremental_eval = !r.config.incremental_eval;
          EXPECT_EQ(PlanService::fingerprint(r), fp)
              << "evaluation strategy leaked into the cache key";
        }

        // Double canonicalization: -0.0 and +0.0 are the same config.
        {
          PlanRequest r = req;
          r.config.seed_fraction = -0.0;
          PlanRequest r2 = req;
          r2.config.seed_fraction = 0.0;
          EXPECT_EQ(PlanService::fingerprint(r), PlanService::fingerprint(r2));
        }
      },
      {.iterations = 60});
}

TEST(PropServer, FingerprintHasherCanonicalizesNonFiniteDoubles) {
  // Non-finite configs are rejected upstream (by the config lint), but the
  // hasher itself must still be total and canonical: every NaN bit pattern
  // digests identically, so a digest can never depend on which NaN a
  // computation produced.
  prop::check(
      "fingerprint_nan_canonical", prop::integral<std::uint64_t>(0, ~0ULL),
      [](const std::uint64_t& payload) {
        const double qnan = std::numeric_limits<double>::quiet_NaN();
        // Forge a NaN with this payload (keep exponent all-ones, non-zero
        // mantissa).
        std::uint64_t bits = 0x7FF0000000000000ULL | (payload & 0x000FFFFFFFFFFFFFULL);
        if ((bits & 0x000FFFFFFFFFFFFFULL) == 0) bits |= 1;  // not an inf
        double forged;
        static_assert(sizeof(forged) == sizeof(bits));
        std::memcpy(&forged, &bits, sizeof(bits));

        FingerprintHasher a, b;
        a.mix(qnan);
        b.mix(forged);
        EXPECT_EQ(a.digest(), b.digest()) << "NaN payload leaked into digest";

        FingerprintHasher z1, z2;
        z1.mix(0.0);
        z2.mix(-0.0);
        EXPECT_EQ(z1.digest(), z2.digest()) << "signed zero split the digest";
      },
      {.iterations = 50});
}

// ---------------------------------------------------------------------------
// Invariant: LRU plan cache under pressure — migrated from the hand-rolled
// EvictionUnderPressureFuzz. A generated op stream over more keys than
// capacity: the size bound holds after every op, every hit is exact, and the
// stats ledger matches the lookups issued.
// ---------------------------------------------------------------------------

TEST(PropServer, PlanCacheKeepsBoundsUnderRandomOpStream) {
  prop::check(
      "plan_cache_pressure", prop::cache_op_stream(/*keys=*/40, 1, 400),
      [](const std::vector<prop::CacheOp>& ops) {
        PlanCache cache(/*capacity=*/16, /*shards=*/4);
        std::vector<Fingerprint> keys;
        for (std::size_t i = 0; i < 40; ++i) {
          FingerprintHasher kh;
          kh.mix(static_cast<std::uint64_t>(i));
          kh.mix(std::uint64_t{0xABCDEF});
          keys.push_back(kh.digest());
        }
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        for (const prop::CacheOp& op : ops) {
          if (op.insert) {
            CachedPlan plan;
            plan.plan_cost = static_cast<double>(op.key);
            plan.plan = {static_cast<int>(op.key), static_cast<int>(op.key) + 1};
            cache.insert(keys[op.key], plan);
          } else {
            ++lookups;
            if (const auto hit = cache.lookup(keys[op.key])) {
              ++hits;
              EXPECT_EQ(hit->plan_cost, static_cast<double>(op.key));
              EXPECT_EQ(hit->plan, (std::vector<int>{
                                       static_cast<int>(op.key),
                                       static_cast<int>(op.key) + 1}));
            }
          }
          EXPECT_LE(cache.size(), 16u);
        }
        const auto stats = cache.stats();
        EXPECT_EQ(stats.hits + stats.misses, lookups);
        EXPECT_EQ(stats.hits, hits);
        EXPECT_LE(stats.entries, 16u);
      },
      {.iterations = 25});
}

// ---------------------------------------------------------------------------
// Invariant: serve ≡ direct — a plan served through PlanService (queue,
// worker thread, cache) is bit-identical to run_multiphase called directly
// with the same tuned config and seed, for random GA shapes and seeds, on
// every spec kind. The direct run builds its problem here, from the case's
// own parameters, so a drift in the service's spec→domain factory (the
// tiles scramble included) fails the comparison.
// ---------------------------------------------------------------------------

struct ServeCase {
  int kind = 0;  ///< 0 hanoi:ARG, 1 sokoban:ARG, 2 tiles:ARG:SCRAMBLE
  int arg = 3;   ///< disks, catalog level, or board size
  std::uint64_t scramble = 7;
  ga::GaConfig cfg;
  std::uint64_t seed = 1;
};

std::string serve_spec_text(const ServeCase& c) {
  switch (c.kind) {
    case 0: return "hanoi:" + std::to_string(c.arg);
    case 1: return "sokoban:" + std::to_string(c.arg);
    default:
      return "tiles:" + std::to_string(c.arg) + ":" + std::to_string(c.scramble);
  }
}

prop::Gen<ServeCase> serve_case() {
  prop::Gen<ServeCase> g;
  g.sample = [](util::Rng& rng) {
    ServeCase c;
    c.kind = static_cast<int>(rng.below(3));
    switch (c.kind) {
      case 0: c.arg = 3 + static_cast<int>(rng.below(2)); break;
      case 1: c.arg = static_cast<int>(rng.below(sokoban_catalog_size())); break;
      default:
        c.arg = 3 + static_cast<int>(rng.below(2));
        c.scramble = rng.below(std::uint64_t{1} << 32);
        break;
    }
    c.cfg = prop::random_config(rng);
    c.cfg.phases = 1 + rng.below(3);
    c.seed = rng();
    return c;
  };
  g.show = [](const ServeCase& c) {
    return serve_spec_text(c) + " seed=" + std::to_string(c.seed) +
           " phases=" + std::to_string(c.cfg.phases) + " " + c.cfg.summary();
  };
  return g;
}

TEST(PropServer, ServedPlanMatchesDirectRun) {
  prop::check(
      "serve_equals_direct", serve_case(),
      [](const ServeCase& c) {
        ServerConfig scfg;
        scfg.workers = 1;
        scfg.queue_capacity = 16;
        scfg.cache_capacity = 32;
        scfg.cache_shards = 2;
        PlanService svc(scfg);

        PlanRequest req;
        std::string err;
        const auto spec = ProblemSpec::parse(serve_spec_text(c), err);
        ASSERT_TRUE(spec.has_value()) << err;
        req.problem = *spec;
        req.config = c.cfg;
        req.seed = c.seed;

        const auto out = svc.submit(req);
        ASSERT_TRUE(out.accepted);
        const auto st = svc.wait(out.id);
        ASSERT_TRUE(st.has_value());
        ASSERT_EQ(st->state, RequestState::kDone);

        const ga::GaConfig cfg = tuned_config(req.problem, req.config);
        const auto expect_direct = [&](const auto& problem) {
          const auto direct = ga::run_multiphase(problem, cfg, req.seed);
          EXPECT_EQ(st->plan, direct.plan);
          EXPECT_EQ(st->plan_valid, direct.valid);
          EXPECT_EQ(st->goal_fitness, direct.goal_fitness);
          EXPECT_EQ(st->phases_run, direct.phases_run);
          EXPECT_EQ(st->generations_total, direct.generations_total);
          EXPECT_EQ(st->plan_cost,
                    ga::plan_cost(problem, problem.initial_state(), direct.plan));
        };
        switch (c.kind) {
          case 0:
            expect_direct(domains::Hanoi(c.arg, 0, 1));
            break;
          case 1:
            expect_direct(domains::Sokoban(
                sokoban_catalog_level(static_cast<std::size_t>(c.arg))));
            break;
          default: {
            util::Rng scramble(c.scramble);
            const domains::SlidingTile solved(c.arg);
            expect_direct(
                domains::SlidingTile(c.arg, solved.random_solvable(scramble)));
            break;
          }
        }
      },
      {.iterations = 12});
}

}  // namespace
