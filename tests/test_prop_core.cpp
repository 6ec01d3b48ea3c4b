// Core decode/crossover/config invariants as properties (tests/prop/).
//
// Carries the eval-parity fuzz formerly hand-rolled in
// tests/test_eval_incremental.cpp: the evolution-shaped edit chains are now a
// generated value (so failing chains shrink to a minimal edit list) and every
// failure prints a GAPLAN_PROP_SEED replay line.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "analysis/config_lint.hpp"
#include "core/crossover.hpp"
#include "core/decoder.hpp"
#include "core/engine.hpp"
#include "core/eval_cache.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gaplan;
using ga::Genome;

// Exact-equality comparison of everything a decode produces (dead_end is a
// property of the final state that whole-evaluation reuse may legitimately
// know when a cold decode never probed — excluded, as in the original fuzz).
template <typename State>
void expect_same_decode(const ga::Evaluation<State>& got,
                        const ga::Evaluation<State>& want) {
  EXPECT_EQ(got.valid, want.valid);
  EXPECT_EQ(got.goal_index, want.goal_index);
  EXPECT_EQ(got.effective_length, want.effective_length);
  EXPECT_EQ(got.match_fit, want.match_fit);
  EXPECT_EQ(got.plan_cost, want.plan_cost);
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_EQ(got.state_hashes, want.state_hashes);
  EXPECT_EQ(got.op_signatures, want.op_signatures);
  EXPECT_EQ(got.checkpoint_stride, want.checkpoint_stride);
  EXPECT_EQ(got.checkpoint_costs, want.checkpoint_costs);
  ASSERT_EQ(got.checkpoint_states.size(), want.checkpoint_states.size());
  for (std::size_t k = 0; k < got.checkpoint_states.size(); ++k) {
    EXPECT_TRUE(got.checkpoint_states[k] == want.checkpoint_states[k]);
  }
  EXPECT_TRUE(got.final_state == want.final_state);
  EXPECT_TRUE(got.decoded);
}

// ---------------------------------------------------------------------------
// Invariant: decode determinism — the same (domain, options, genome) decodes
// to the same Evaluation every time, cold path and context path alike.
// ---------------------------------------------------------------------------

struct DecodeCase {
  prop::DomainCase domain;
  Genome genome;
  bool truncate = true;
  bool hashes = true;
  std::size_t stride = 1;
};

prop::Gen<DecodeCase> decode_case() {
  prop::Gen<DecodeCase> g;
  g.sample = [](util::Rng& rng) {
    DecodeCase c;
    c.domain = prop::random_domain(rng);
    c.genome = prop::random_genome(1 + rng.below(80), rng);
    c.truncate = rng.chance(0.5);
    c.hashes = rng.chance(0.5);
    static constexpr std::size_t kStrides[] = {0, 1, 4, 16};
    c.stride = kStrides[rng.below(4)];
    return c;
  };
  g.shrink = [](const DecodeCase& c) {
    std::vector<DecodeCase> out;
    if (c.genome.size() > 1) {
      DecodeCase half = c;
      half.genome.resize(std::max<std::size_t>(1, c.genome.size() / 2));
      out.push_back(std::move(half));
      DecodeCase drop = c;
      drop.genome.pop_back();
      out.push_back(std::move(drop));
    }
    return out;
  };
  g.show = [](const DecodeCase& c) {
    return c.domain.label + " len=" + std::to_string(c.genome.size()) +
           " truncate=" + std::to_string(c.truncate) +
           " hashes=" + std::to_string(c.hashes) +
           " stride=" + std::to_string(c.stride);
  };
  return g;
}

template <typename Case>  // any case carrying truncate/hashes/stride
ga::DecodeOptions options_of(const Case& c) {
  ga::DecodeOptions opt;
  opt.truncate_at_goal = c.truncate;
  opt.record_hashes = c.hashes;
  opt.checkpoint_stride = c.stride;
  return opt;
}

TEST(PropCore, DecodeIsDeterministic) {
  prop::check(
      "decode_deterministic", decode_case(),
      [](const DecodeCase& c) {
        c.domain.visit([&](const auto& problem) {
          using P = std::decay_t<decltype(problem)>;
          using State = typename P::StateT;
          const auto start = problem.initial_state();
          const ga::DecodeOptions opt = options_of(c);
          std::vector<int> scratch;
          const auto a = ga::decode_indirect(problem, start, c.genome, opt, scratch);
          const auto b = ga::decode_indirect(problem, start, c.genome, opt, scratch);
          expect_same_decode(a, b);
          ga::EvalContext<State> ctx;
          ctx.sync(&problem, ga::next_eval_epoch(),
                   ga::CacheableOps<P> ? 64 : 0);
          ga::Evaluation<State> ev;
          ga::decode_indirect_into(problem, start, c.genome, opt, ctx, ev);
          expect_same_decode(ev, a);
        });
      },
      {.iterations = 30});
}

// ---------------------------------------------------------------------------
// Invariant: incremental resume ≡ cold decode — migrated eval-parity fuzz.
// A generated chain of genome edits (point mutation, tail replacement,
// truncation, nudge, no-op) resume-decodes each child from its parent record
// and compares against an independent cold decode. Edits carry their own
// under-reported-dirty / withheld-parent / adoption coins, so shrinking drops
// whole edits from a failing chain.
// ---------------------------------------------------------------------------

struct GeneEdit {
  int kind = 4;              // 0 point, 1 tail, 2 truncate, 3 nudge, 4 no-op
  std::uint32_t pos = 0;     // raw position material (mod current size)
  std::uint32_t extra = 0;   // count / tail-length material
  double value = 0.0;        // replacement gene / nudge delta material
  bool underreport = false;  // halve the reported dirty index
  bool withhold = false;     // hide the parent genome from resume
  bool adopt = false;        // child becomes the next parent
};

struct ResumeCase {
  prop::DomainCase domain;
  Genome genome;
  bool truncate = true;
  bool hashes = true;
  std::size_t stride = 1;
  std::vector<GeneEdit> edits;
};

prop::Gen<ResumeCase> resume_case() {
  prop::Gen<ResumeCase> g;
  g.sample = [](util::Rng& rng) {
    ResumeCase c;
    c.domain = prop::random_domain(rng);
    c.genome = prop::random_genome(8 + rng.below(80), rng);
    c.truncate = rng.chance(0.5);
    c.hashes = rng.chance(0.5);
    static constexpr std::size_t kStrides[] = {1, 4, 16};
    c.stride = kStrides[rng.below(3)];
    const std::size_t n = 4 + rng.below(17);
    for (std::size_t i = 0; i < n; ++i) {
      GeneEdit e;
      e.kind = static_cast<int>(rng.below(5));
      e.pos = static_cast<std::uint32_t>(rng());
      e.extra = static_cast<std::uint32_t>(rng());
      e.value = rng.uniform();
      e.underreport = rng.chance(0.2);
      e.withhold = rng.chance(0.15);
      e.adopt = rng.chance(0.5);
      c.edits.push_back(e);
    }
    return c;
  };
  g.shrink = [](const ResumeCase& c) {
    std::vector<ResumeCase> out;
    if (c.edits.size() > 1) {
      ResumeCase front = c;
      front.edits.resize(c.edits.size() / 2);
      out.push_back(std::move(front));
      ResumeCase back = c;
      back.edits.erase(back.edits.begin(),
                       back.edits.begin() +
                           static_cast<std::ptrdiff_t>(c.edits.size() / 2));
      out.push_back(std::move(back));
      ResumeCase drop = c;
      drop.edits.pop_back();
      out.push_back(std::move(drop));
    }
    if (c.genome.size() > 8) {
      ResumeCase half = c;
      half.genome.resize(std::max<std::size_t>(8, c.genome.size() / 2));
      out.push_back(std::move(half));
    }
    return out;
  };
  g.show = [](const ResumeCase& c) {
    std::string s = c.domain.label + " len=" + std::to_string(c.genome.size()) +
                    " stride=" + std::to_string(c.stride) +
                    " truncate=" + std::to_string(c.truncate) +
                    " hashes=" + std::to_string(c.hashes) + " edits=[";
    for (std::size_t i = 0; i < c.edits.size(); ++i) {
      if (i) s += ",";
      s += std::to_string(c.edits[i].kind);
    }
    return s + "]";
  };
  return g;
}

TEST(PropCore, ResumeDecodeMatchesColdDecode) {
  prop::check(
      "resume_equals_cold", resume_case(),
      [](const ResumeCase& c) {
        c.domain.visit([&](const auto& problem) {
          using P = std::decay_t<decltype(problem)>;
          using State = typename P::StateT;
          const auto start = problem.initial_state();
          const ga::DecodeOptions opt = options_of(c);
          ga::EvalContext<State> ctx;
          ctx.sync(&problem, ga::next_eval_epoch(),
                   ga::CacheableOps<P> ? 256 : 0);
          std::vector<int> cold_scratch;
          const auto cold = [&](const Genome& g) {
            return ga::decode_indirect(problem, start, g, opt, cold_scratch);
          };

          Genome parent = c.genome;
          ga::Evaluation<State> parent_ev;
          ga::decode_indirect_into(problem, start, parent, opt, ctx, parent_ev);
          expect_same_decode(parent_ev, cold(parent));

          Genome child;
          ga::Evaluation<State> child_ev;  // recycled, like the engine's
          for (const GeneEdit& e : c.edits) {
            child = parent;
            std::size_t dirty = child.size();
            if (e.kind == 0 && !child.empty()) {
              const std::size_t i = e.pos % child.size();
              child[i] = e.value;
              dirty = std::min(dirty, i);
            } else if (e.kind == 1) {
              const std::size_t cut = e.pos % (child.size() + 1);
              const std::size_t tail = e.extra % 33;
              child.resize(cut);
              util::Rng tail_rng(e.extra);
              for (std::size_t t = 0; t < tail; ++t) {
                child.push_back(tail_rng.uniform());
              }
              if (child.empty()) child.push_back(e.value);
              dirty = std::min(dirty, cut);
            } else if (e.kind == 2 && !child.empty()) {
              const std::size_t cut = 1 + e.pos % child.size();
              child.resize(cut);
              dirty = std::min(dirty, child.size());
            } else if (e.kind == 3 && !child.empty()) {
              const std::size_t i = e.pos % child.size();
              const double delta = (e.value - 0.5) * 0.04;
              child[i] =
                  std::clamp(child[i] + delta, 0.0, 0x1.fffffffffffffp-1);
              dirty = std::min(dirty, i);
            }  // kind 4: identical genome, dirty = len (full-reuse path)
            // Under-reporting dirty may only cost work, never correctness.
            if (e.underreport) dirty /= 2;
            const std::span<const ga::Gene> pg =
                e.withhold ? std::span<const ga::Gene>{}
                           : std::span<const ga::Gene>{parent};
            ga::decode_indirect_resume(problem, start, child, opt, ctx,
                                       parent_ev, pg, dirty, child_ev);
            expect_same_decode(child_ev, cold(child));
            if (e.adopt) {
              parent = child;
              parent_ev = child_ev;
            }
          }
        });
      },
      {.iterations = 40});
}

// ---------------------------------------------------------------------------
// Invariant: state-aware crossover suffix-state preservation (§3.4.2). Under
// exact-state matching, the donated suffix decodes to exactly the operations
// it encoded in its original parent — the child's op trajectory is parent A's
// prefix followed by parent B's suffix, wherever the decodes overlap.
// ---------------------------------------------------------------------------

struct CrossoverCase {
  prop::DomainCase domain;
  Genome a, b;
  std::uint64_t cut_seed = 0;
};

prop::Gen<CrossoverCase> crossover_case() {
  prop::Gen<CrossoverCase> g;
  g.sample = [](util::Rng& rng) {
    CrossoverCase c;
    c.domain = prop::random_domain(rng);
    c.a = prop::random_genome(4 + rng.below(60), rng);
    c.b = prop::random_genome(4 + rng.below(60), rng);
    c.cut_seed = rng();
    return c;
  };
  g.show = [](const CrossoverCase& c) {
    return c.domain.label + " |a|=" + std::to_string(c.a.size()) +
           " |b|=" + std::to_string(c.b.size()) +
           " cut_seed=" + std::to_string(c.cut_seed);
  };
  return g;
}

TEST(PropCore, StateAwareCrossoverPreservesSuffixTrajectories) {
  prop::check(
      "state_aware_suffix_preserved", crossover_case(),
      [](const CrossoverCase& c) {
        c.domain.visit([&](const auto& problem) {
          const auto start = problem.initial_state();
          ga::DecodeOptions opt;
          opt.truncate_at_goal = false;  // goal truncation would mask suffixes
          opt.record_hashes = true;
          std::vector<int> scratch;
          const auto ev_a = ga::decode_indirect(problem, start, c.a, opt, scratch);
          const auto ev_b = ga::decode_indirect(problem, start, c.b, opt, scratch);

          util::Rng rng(c.cut_seed);
          ga::CrossoverScratch scr;
          ga::CrossoverStats stats;
          Genome child1 = c.a, child2 = c.b;
          std::size_t c1 = ga::kCleanGenome, c2 = ga::kCleanGenome;
          const std::size_t cap = c.a.size() + c.b.size();
          ga::GaConfig cfg;
          cfg.crossover = ga::CrossoverKind::kStateAware;
          cfg.max_length = cap;
          const bool done = ga::crossover_genomes(
              cfg, child1, ev_a.state_hashes, child2, ev_b.state_hashes, rng,
              stats, scr, c1, c2);
          if (!done) return;  // no matching states: vacuously true

          ASSERT_EQ(child1.size(),
                    std::min(cap, c1 + (c.b.size() - c2)));
          const auto ev_child =
              ga::decode_indirect(problem, start, child1, opt, scratch);
          // Prefix: the child replays parent A op-for-op up to the cut.
          const std::size_t prefix =
              std::min({c1, ev_child.ops.size(), ev_a.ops.size()});
          for (std::size_t i = 0; i < prefix; ++i) {
            EXPECT_EQ(ev_child.ops[i], ev_a.ops[i]) << "prefix op " << i;
          }
          // Suffix: from the exactly-matching state, the donated genes map to
          // the same ops they produced in parent B.
          if (ev_child.ops.size() >= c1 && ev_b.ops.size() >= c2) {
            const std::size_t overlap =
                std::min(ev_child.ops.size() - c1, ev_b.ops.size() - c2);
            for (std::size_t k = 0; k < overlap; ++k) {
              EXPECT_EQ(ev_child.ops[c1 + k], ev_b.ops[c2 + k])
                  << "suffix op " << k << " (c1=" << c1 << ", c2=" << c2 << ")";
            }
          }
        });
      },
      {.iterations = 40});
}

// ---------------------------------------------------------------------------
// Invariant: the validated envelope lints clean — every config the generator
// draws passes validate() and produces zero lint errors ("clean corpus stays
// clean").
// ---------------------------------------------------------------------------

TEST(PropCore, ValidatedEnvelopeLintsClean) {
  prop::Gen<ga::GaConfig> g;
  g.sample = prop::random_config;
  g.shrink = prop::shrink_config;
  g.show = prop::show_config;
  prop::check(
      "clean_corpus_stays_clean", g,
      [](const ga::GaConfig& cfg) {
        EXPECT_NO_THROW(cfg.validate()) << cfg.summary();
        const auto report = analysis::lint_config(cfg);
        EXPECT_FALSE(report.has_errors()) << cfg.summary();
      },
      {.iterations = 100});
}

// ---------------------------------------------------------------------------
// Invariant: non-finite config doubles never pass admission — NaN slips
// through `x < lo || x > hi` range checks and +inf through `>= 0`, so both
// validate() and the lint carry an explicit finiteness gate (the satellite
// fix this property caught).
// ---------------------------------------------------------------------------

struct NonFiniteCase {
  ga::GaConfig cfg;
  int field = 0;
  int poison = 0;  // 0 NaN, 1 +inf, 2 -inf
};

prop::Gen<NonFiniteCase> non_finite_case() {
  prop::Gen<NonFiniteCase> g;
  g.sample = [](util::Rng& rng) {
    NonFiniteCase c;
    c.cfg = prop::random_config(rng);
    c.field = static_cast<int>(rng.below(7));
    c.poison = static_cast<int>(rng.below(3));
    double v = std::numeric_limits<double>::quiet_NaN();
    if (c.poison == 1) v = std::numeric_limits<double>::infinity();
    if (c.poison == 2) v = -std::numeric_limits<double>::infinity();
    switch (c.field) {
      case 0: c.cfg.crossover_rate = v; break;
      case 1: c.cfg.mutation_rate = v; break;
      case 2: c.cfg.seed_fraction = v; break;
      case 3: c.cfg.seed_greediness = v; break;
      case 4: c.cfg.goal_weight = v; break;
      case 5: c.cfg.cost_weight = v; break;
      default: c.cfg.match_weight = v; break;
    }
    return c;
  };
  g.show = [](const NonFiniteCase& c) {
    static constexpr const char* kFields[] = {
        "crossover_rate", "mutation_rate", "seed_fraction", "seed_greediness",
        "goal_weight",    "cost_weight",   "match_weight"};
    static constexpr const char* kPoisons[] = {"NaN", "+inf", "-inf"};
    return std::string(kFields[c.field]) + "=" + kPoisons[c.poison];
  };
  return g;
}

TEST(PropCore, NonFiniteConfigDoublesAreRejected) {
  prop::check(
      "non_finite_config_rejected", non_finite_case(),
      [](const NonFiniteCase& c) {
        EXPECT_THROW(c.cfg.validate(), std::invalid_argument);
        const auto report = analysis::lint_config(c.cfg);
        EXPECT_TRUE(report.has_errors());
        bool found = false;
        for (const auto& d : report.diagnostics()) {
          found |= d.code == "config.non-finite";
        }
        EXPECT_TRUE(found) << "lint must name config.non-finite";
      },
      {.iterations = 60});
}

// ---------------------------------------------------------------------------
// Invariant: ThreadPool::try_submit backlog bound — with every worker blocked,
// exactly min(attempts, max_queue) submissions are accepted, and the bound
// never blocks the submitter.
// ---------------------------------------------------------------------------

struct BacklogCase {
  std::size_t workers = 1;
  std::size_t max_queue = 0;
  std::size_t attempts = 0;
};

prop::Gen<BacklogCase> backlog_case() {
  prop::Gen<BacklogCase> g;
  g.sample = [](util::Rng& rng) {
    BacklogCase c;
    c.workers = 1 + rng.below(4);
    c.max_queue = rng.below(9);
    c.attempts = rng.below(17);
    return c;
  };
  g.shrink = [](const BacklogCase& c) {
    std::vector<BacklogCase> out;
    if (c.attempts > 0) out.push_back({c.workers, c.max_queue, c.attempts / 2});
    if (c.workers > 1) out.push_back({1, c.max_queue, c.attempts});
    return out;
  };
  g.show = [](const BacklogCase& c) {
    return "workers=" + std::to_string(c.workers) +
           " max_queue=" + std::to_string(c.max_queue) +
           " attempts=" + std::to_string(c.attempts);
  };
  return g;
}

TEST(PropCore, TrySubmitHonoursBacklogBound) {
  prop::check(
      "try_submit_backlog_bound", backlog_case(),
      [](const BacklogCase& c) {
        util::ThreadPool pool(c.workers);
        std::promise<void> gate;
        std::shared_future<void> open = gate.get_future().share();
        std::atomic<std::size_t> parked{0};
        std::vector<std::future<void>> blockers;
        for (std::size_t i = 0; i < c.workers; ++i) {
          blockers.push_back(pool.submit([open, &parked] {
            parked.fetch_add(1);
            open.wait();
          }));
        }
        while (parked.load() < c.workers) std::this_thread::yield();
        // Queue is now empty and every worker is parked: acceptance is purely
        // the queue bound.
        std::vector<std::future<void>> accepted;
        for (std::size_t i = 0; i < c.attempts; ++i) {
          if (auto fut = pool.try_submit([] {}, c.max_queue)) {
            accepted.push_back(std::move(*fut));
          }
        }
        EXPECT_EQ(accepted.size(), std::min(c.attempts, c.max_queue));
        gate.set_value();
        for (auto& f : blockers) f.get();
        for (auto& f : accepted) f.get();
      },
      {.iterations = 25});
}

}  // namespace
