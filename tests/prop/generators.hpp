// Generators for the project's value types, shared by every property suite:
// genomes and gene edits, GaConfigs drawn from the validated envelope,
// planning domains, NDJSON wire messages (well-formed and adversarial),
// plan-cache key streams, and chaos scenarios. All draws come from the
// property runner's seeded Rng, so every generated case is a pure function of
// one 64-bit seed (tests/prop/prop.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "core/individual.hpp"
#include "domains/hanoi.hpp"
#include "domains/hanoi_strips.hpp"
#include "domains/pocket_cube.hpp"
#include "domains/sliding_tile.hpp"
#include "domains/sokoban.hpp"
#include "grid/scenario.hpp"
#include "prop/prop.hpp"
#include "server/wire.hpp"
#include "util/rng.hpp"

namespace gaplan::prop {

// ---------------------------------------------------------------------------
// Genomes

inline ga::Gene random_gene(util::Rng& rng) { return rng.uniform(); }

inline ga::Genome random_genome(std::size_t len, util::Rng& rng) {
  ga::Genome g(len);
  for (auto& x : g) x = rng.uniform();
  return g;
}

/// Genome of length [min_len, max_len]; shrinks by halving / dropping genes.
inline Gen<ga::Genome> genome(std::size_t min_len, std::size_t max_len) {
  Gen<double> gene = real(0.0, 1.0);
  gene.shrink = [](const double& v) {
    std::vector<double> out;
    if (v != 0.0) out.push_back(0.0);
    if (v > 0.5) out.push_back(0.5);
    return out;
  };
  return vector_of(std::move(gene), min_len, max_len);
}

// ---------------------------------------------------------------------------
// GaConfigs from the validated envelope

/// A GaConfig that always passes GaConfig::validate(): the random sweep
/// envelope of tests/test_eval_soa.cpp widened with elite/seeding/selection
/// knobs. Small budgets keep engine-level properties fast.
inline ga::GaConfig random_config(util::Rng& rng) {
  ga::GaConfig cfg;
  cfg.generations = 3 + rng.below(6);
  cfg.initial_length = 8 + rng.below(17);
  cfg.max_length = cfg.initial_length + 8 + rng.below(57);
  cfg.stop_on_valid = false;
  static constexpr ga::CrossoverKind kXover[] = {
      ga::CrossoverKind::kRandom, ga::CrossoverKind::kStateAware,
      ga::CrossoverKind::kMixed, ga::CrossoverKind::kUniform};
  cfg.crossover = kXover[rng.below(4)];
  cfg.state_match = rng.chance(0.5) ? ga::StateMatchKind::kValidOps
                                    : ga::StateMatchKind::kExactState;
  cfg.crossover_rate = 0.5 + 0.5 * rng.uniform();
  cfg.mutation_rate = 0.05 * rng.uniform();
  cfg.selection = rng.chance(0.3) ? ga::SelectionKind::kRoulette
                                  : ga::SelectionKind::kTournament;
  cfg.tournament_size = 2 + rng.below(3);
  cfg.elite_count = rng.below(4);
  cfg.seed_fraction = rng.chance(0.3) ? rng.uniform() : 0.0;
  cfg.truncate_at_goal = rng.chance(0.8);
  cfg.incremental_eval = rng.chance(0.8);
  static constexpr std::size_t kStrides[] = {1, 4, 16};
  cfg.eval_checkpoint_stride = kStrides[rng.below(3)];
  // Kernel passes decode in 8-lane groups; an (even) population off a
  // multiple of 8 leaves a partial last group.
  static constexpr std::size_t kPops[] = {10, 12, 14, 18, 20, 22};
  cfg.population_size = kPops[rng.below(6)];
  return cfg;
}

/// Shrink a config toward the defaults, one knob at a time (a property that
/// still fails with the knob at its default exonerates that knob).
inline std::vector<ga::GaConfig> shrink_config(const ga::GaConfig& cfg) {
  std::vector<ga::GaConfig> out;
  if (cfg.crossover != ga::CrossoverKind::kRandom ||
      cfg.state_match != ga::StateMatchKind::kValidOps) {
    ga::GaConfig c = cfg;
    c.crossover = ga::CrossoverKind::kRandom;
    c.state_match = ga::StateMatchKind::kValidOps;
    out.push_back(c);
  }
  if (cfg.elite_count != 0 || cfg.seed_fraction != 0.0) {
    ga::GaConfig c = cfg;
    c.elite_count = 0;
    c.seed_fraction = 0.0;
    out.push_back(c);
  }
  if (cfg.generations > 2) {
    ga::GaConfig c = cfg;
    c.generations = std::max<std::size_t>(2, cfg.generations / 2);
    out.push_back(c);
  }
  if (cfg.population_size > 8) {
    ga::GaConfig c = cfg;
    c.population_size =
        std::max<std::size_t>(8, (cfg.population_size / 2) & ~std::size_t{1});
    c.elite_count = std::min(c.elite_count, c.population_size - 1);
    out.push_back(c);
  }
  if (cfg.eval_checkpoint_stride != 1) {
    ga::GaConfig c = cfg;
    c.eval_checkpoint_stride = 1;
    out.push_back(c);
  }
  return out;
}

inline std::string show_config(const ga::GaConfig& cfg) { return cfg.summary(); }

// ---------------------------------------------------------------------------
// Domains

/// One planning problem drawn from the fuzzable families, pre-built with
/// a seeded start state. Held by shared_ptr so a case value is copyable.
struct DomainCase {
  std::string label;
  /// Keeps what the problem points into alive (strips::Problem borrows its
  /// Domain from the HanoiStrips builder; a WorkflowProblem its catalog and
  /// pool).
  std::shared_ptr<void> owner;
  std::variant<std::shared_ptr<domains::Hanoi>,
               std::shared_ptr<domains::SlidingTile>,
               std::shared_ptr<domains::PocketCube>,
               std::shared_ptr<strips::Problem>,
               std::shared_ptr<domains::Sokoban>,
               std::shared_ptr<grid::WorkflowProblem>>
      problem;

  /// Calls fn(problem_ref) with the concrete domain type.
  template <typename Fn>
  void visit(Fn&& fn) const {
    std::visit([&](const auto& p) { fn(*p); }, problem);
  }
};

/// A random layered grid workflow on a random heterogeneous pool, with a
/// machine sometimes loaded or down before the problem snapshots the pool.
inline DomainCase random_workflow(util::Rng& rng) {
  struct Grid {
    grid::Scenario scenario;
    grid::ResourcePool pool;
  };
  auto g = std::make_shared<Grid>();
  const std::size_t layers = 2 + rng.below(3);
  const std::size_t width = 2 + rng.below(2);
  g->scenario = grid::random_layered(layers, width, 1 + rng.below(2), rng);
  g->pool = grid::ResourcePool::random_pool(2 + rng.below(4), 8.0, rng);
  if (rng.chance(0.5)) {
    const grid::MachineId m = rng.below(g->pool.size());
    g->pool.set_load(m, rng.uniform(0.0, 4.0));
  }
  if (rng.chance(0.3)) g->pool.set_up(rng.below(g->pool.size()), false);
  DomainCase c;
  c.label = "workflow(layers=" + std::to_string(layers) +
            " width=" + std::to_string(width) +
            " machines=" + std::to_string(g->pool.size()) + ")";
  c.problem = std::make_shared<grid::WorkflowProblem>(g->scenario.problem(g->pool));
  c.owner = std::move(g);
  return c;
}

inline DomainCase random_domain(util::Rng& rng) {
  DomainCase c;
  switch (rng.below(5)) {
    case 0: {
      const int disks = 3 + static_cast<int>(rng.below(4));
      c.label = "hanoi:" + std::to_string(disks);
      c.problem = std::make_shared<domains::Hanoi>(disks);
      break;
    }
    case 1: {
      util::Rng scramble(rng());
      const domains::SlidingTile base(3);
      const std::size_t moves = 10 + rng.below(30);
      c.label = "tiles:3(scramble=" + std::to_string(moves) + ")";
      c.problem = std::make_shared<domains::SlidingTile>(
          3, base.scrambled(moves, scramble));
      break;
    }
    case 2: {
      auto cube = std::make_shared<domains::PocketCube>();
      util::Rng scramble(rng());
      const std::size_t moves = 3 + rng.below(6);
      cube->set_initial(cube->scrambled(moves, scramble));
      c.label = "cube(scramble=" + std::to_string(moves) + ")";
      c.problem = std::move(cube);
      break;
    }
    case 3: {
      c.label = "hanoi-strips:3";
      auto enc = std::make_shared<domains::HanoiStrips>(
          domains::build_hanoi_strips(3));
      c.problem = std::make_shared<strips::Problem>(enc->problem());
      c.owner = std::move(enc);
      break;
    }
    default: {
      // The kernel-less cacheable domains share the last draw, so a seed
      // that drew one of the other families still draws it.
      if (rng.chance(0.5)) {
        c.label = "sokoban";
        c.problem = std::make_shared<domains::Sokoban>(std::vector<std::string>{
            "#######",
            "#.....#",
            "#.$.$.#",
            "#..@..#",
            "#.o.o.#",
            "#######",
        });
      } else {
        c = random_workflow(rng);
      }
      break;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Wire messages

/// Abstract wire field; rendering happens in render_wire so the generator can
/// also corrupt a rendered frame without re-deriving structure.
struct WireField {
  std::string key;
  int kind = 0;  // 0 string, 1 number, 2 bool, 3 null
  std::string str;
  double num = 0.0;
  bool flag = false;
};

struct WireCase {
  std::vector<WireField> fields;
};

inline std::string random_key(util::Rng& rng) {
  static constexpr const char* kKeys[] = {"cmd",  "problem", "gens", "tag",
                                          "rate", "deep",    "note", "id"};
  std::string k = kKeys[rng.below(8)];
  if (rng.chance(0.3)) k += std::to_string(rng.below(100));
  return k;
}

/// Strings exercise the escape space: quotes, backslashes, unicode escapes,
/// high bytes — everything JsonWriter must escape and the parser must accept.
inline std::string random_wire_string(util::Rng& rng) {
  static constexpr const char kAlphabet[] =
      "abcXYZ019 _-:/\\\"\n\r\t\b\f";
  std::string s;
  const std::size_t n = rng.below(12);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.08)) {
      s += static_cast<char>(0xC3);  // valid 2-byte UTF-8 lead
      s += static_cast<char>(0xA9);
    } else {
      s += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    }
  }
  return s;
}

inline WireCase random_wire_case(util::Rng& rng) {
  WireCase c;
  const std::size_t n = rng.below(6);
  for (std::size_t i = 0; i < n; ++i) {
    WireField f;
    f.key = random_key(rng);
    f.kind = static_cast<int>(rng.below(4));
    switch (f.kind) {
      case 0: f.str = random_wire_string(rng); break;
      case 1:
        f.num = rng.chance(0.5)
                    ? static_cast<double>(rng.range(-1000000, 1000000))
                    : rng.uniform(-1e6, 1e6);
        break;
      case 2: f.flag = rng.chance(0.5); break;
      default: break;  // null
    }
    c.fields.push_back(std::move(f));
  }
  return c;
}

/// Renders a WireCase through JsonWriter — the exact encoder the server uses.
inline std::string render_wire(const WireCase& c) {
  serve::JsonWriter w;
  for (const WireField& f : c.fields) {
    switch (f.kind) {
      case 0: w.field(f.key, std::string_view(f.str)); break;
      case 1: w.field(f.key, f.num); break;
      case 2: w.field(f.key, f.flag); break;
      default: w.raw_field(f.key, "null"); break;
    }
  }
  return w.finish();
}

inline Gen<WireCase> wire_case() {
  Gen<WireCase> g;
  g.sample = random_wire_case;
  g.shrink = [](const WireCase& c) {
    std::vector<WireCase> out;
    if (!c.fields.empty()) {
      out.push_back({std::vector<WireField>(c.fields.begin() + 1,
                                            c.fields.end())});
      out.push_back({std::vector<WireField>(c.fields.begin(),
                                            c.fields.end() - 1)});
      WireCase plain = c;  // strip the string payloads, keep the shape
      for (WireField& f : plain.fields) f.str.clear();
      out.push_back(std::move(plain));
    }
    return out;
  };
  g.show = [](const WireCase& c) { return render_wire(c); };
  return g;
}

/// An adversarial frame: a well-formed rendering plus one seeded corruption —
/// truncation, embedded control/NUL bytes, garbage injection, or an oversized
/// blow-up. The parser must fail cleanly or parse; never crash, hang, or
/// silently truncate a field.
struct AdversarialFrame {
  std::string line;
  std::string mutation;
};

inline AdversarialFrame random_adversarial_frame(util::Rng& rng) {
  AdversarialFrame a;
  a.line = render_wire(random_wire_case(rng));
  switch (rng.below(6)) {
    case 0: {
      a.mutation = "truncate";
      a.line.resize(rng.below(a.line.size() + 1));
      break;
    }
    case 1: {
      // \t \n \r are legal inter-token JSON whitespace; the other control
      // bytes are illegal everywhere (inside strings they must be escaped),
      // so the property can demand rejection unconditionally.
      a.mutation = "control-char";
      char ctl;
      do {
        ctl = static_cast<char>(rng.below(0x20));
      } while (ctl == '\t' || ctl == '\n' || ctl == '\r');
      a.line.insert(a.line.begin() +
                        static_cast<std::ptrdiff_t>(rng.below(a.line.size() + 1)),
                    ctl);
      break;
    }
    case 2: {
      a.mutation = "garbage";
      const std::size_t n = 1 + rng.below(8);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t at = rng.below(a.line.size() + 1);
        a.line.insert(a.line.begin() + static_cast<std::ptrdiff_t>(at),
                      static_cast<char>(rng.below(256)));
      }
      break;
    }
    case 3: {
      a.mutation = "oversize";
      std::string blob(serve::kMaxWireFrameBytes + 7, 'x');
      a.line = "{\"note\":\"" + blob + "\"}";
      break;
    }
    case 4: {
      a.mutation = "unterminated-number";
      a.line = "{\"n\":";
      break;
    }
    default: {
      a.mutation = "byte-flip";
      if (!a.line.empty()) {
        const std::size_t at = rng.below(a.line.size());
        a.line[at] = static_cast<char>(rng.below(256));
      }
      break;
    }
  }
  return a;
}

inline Gen<AdversarialFrame> adversarial_frame() {
  Gen<AdversarialFrame> g;
  g.sample = random_adversarial_frame;
  g.shrink = [](const AdversarialFrame& a) {
    std::vector<AdversarialFrame> out;
    if (a.line.size() > 1) {
      out.push_back({a.line.substr(0, a.line.size() / 2), a.mutation});
      out.push_back({a.line.substr(0, a.line.size() - 1), a.mutation});
      out.push_back({a.line.substr(1), a.mutation});
    }
    return out;
  };
  g.show = [](const AdversarialFrame& a) {
    std::ostringstream os;
    os << a.mutation << " [" << a.line.size() << " bytes] ";
    for (std::size_t i = 0; i < a.line.size() && i < 80; ++i) {
      const unsigned char c = static_cast<unsigned char>(a.line[i]);
      if (c >= 0x20 && c < 0x7F) {
        os << a.line[i];
      } else {
        os << "\\x" << std::hex << static_cast<int>(c) << std::dec;
      }
    }
    if (a.line.size() > 80) os << "...";
    return os.str();
  };
  return g;
}

// ---------------------------------------------------------------------------
// Plan-cache key streams

/// One LRU operation against a keyed slot: insert(i) or lookup(i). Key index
/// space deliberately exceeds typical capacities so eviction churns.
struct CacheOp {
  bool insert = false;
  std::size_t key = 0;
};

inline Gen<std::vector<CacheOp>> cache_op_stream(std::size_t keys,
                                                 std::size_t min_ops,
                                                 std::size_t max_ops) {
  Gen<CacheOp> op;
  op.sample = [keys](util::Rng& rng) {
    return CacheOp{rng.chance(0.5), static_cast<std::size_t>(rng.below(keys))};
  };
  op.show = [](const CacheOp& o) {
    return (o.insert ? "ins(" : "get(") + std::to_string(o.key) + ")";
  };
  return vector_of(std::move(op), min_ops, max_ops);
}

}  // namespace gaplan::prop
