// Microbenchmarks (google-benchmark): the hot paths of the GA planner —
// valid-operation enumeration, state application, genome decoding, fitness
// evaluation, crossover, and the STRIPS substrate's bitset operations.
#include <benchmark/benchmark.h>

#include "core/crossover.hpp"
#include "core/decoder.hpp"
#include "core/fitness.hpp"
#include "core/mutation.hpp"
#include "domains/hanoi.hpp"
#include "domains/hanoi_strips.hpp"
#include "domains/sliding_tile.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;

ga::Genome random_genome(std::size_t len, util::Rng& rng) {
  ga::Genome g(len);
  for (auto& x : g) x = rng.uniform();
  return g;
}

void BM_HanoiValidOps(benchmark::State& state) {
  const domains::Hanoi h(static_cast<int>(state.range(0)));
  auto s = h.initial_state();
  std::vector<int> ops;
  util::Rng rng(1);
  for (auto _ : state) {
    h.valid_ops(s, ops);
    benchmark::DoNotOptimize(ops.data());
    h.apply(s, ops[rng.below(ops.size())]);
  }
}
BENCHMARK(BM_HanoiValidOps)->Arg(5)->Arg(7)->Arg(10);

void BM_TileValidOps(benchmark::State& state) {
  const domains::SlidingTile p(static_cast<int>(state.range(0)));
  auto s = p.goal_state();
  std::vector<int> ops;
  util::Rng rng(1);
  for (auto _ : state) {
    p.valid_ops(s, ops);
    benchmark::DoNotOptimize(ops.data());
    p.apply(s, ops[rng.below(ops.size())]);
  }
}
BENCHMARK(BM_TileValidOps)->Arg(3)->Arg(4)->Arg(5);

void BM_StripsValidOps(benchmark::State& state) {
  const auto enc = domains::build_hanoi_strips(static_cast<int>(state.range(0)));
  const auto problem = enc.problem();
  auto s = problem.initial_state();
  std::vector<int> ops;
  util::Rng rng(1);
  for (auto _ : state) {
    problem.valid_ops(s, ops);
    benchmark::DoNotOptimize(ops.data());
    problem.apply(s, ops[rng.below(ops.size())]);
  }
}
BENCHMARK(BM_StripsValidOps)->Arg(3)->Arg(7);

void BM_DecodeIndirectHanoi(benchmark::State& state) {
  const domains::Hanoi h(7);
  util::Rng rng(2);
  const auto genes = random_genome(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<int> scratch;
  ga::DecodeOptions opt;
  for (auto _ : state) {
    auto ev = ga::decode_indirect(h, h.initial_state(), genes, opt, scratch);
    benchmark::DoNotOptimize(ev.fitness);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(genes.size()));
}
BENCHMARK(BM_DecodeIndirectHanoi)->Arg(127)->Arg(635)->Arg(1270);

void BM_DecodeIndirectTile(benchmark::State& state) {
  util::Rng inst(3);
  const domains::SlidingTile gen(4);
  const domains::SlidingTile p(4, gen.random_solvable(inst));
  util::Rng rng(4);
  const auto genes = random_genome(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<int> scratch;
  ga::DecodeOptions opt;
  for (auto _ : state) {
    auto ev = ga::decode_indirect(p, p.initial_state(), genes, opt, scratch);
    benchmark::DoNotOptimize(ev.fitness);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(genes.size()));
}
BENCHMARK(BM_DecodeIndirectTile)->Arg(64)->Arg(640);

// The population-wide kernel decode of a served tiles:N puzzle (scramble seed
// 7): 200 cold slots of 4·n² genes per run. n = 3 and 4 take the AVX-512
// group step where the CPU has it; n = 5 decodes on the shared scalar loop.
// Items are decoded ops, so the rate reads as ns per op.
void BM_KernelDecodeTile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng scramble(7);
  const domains::SlidingTile gen(n);
  const domains::SlidingTile p(n, gen.random_solvable(scramble));
  ga::DecodeOptions opt;
  opt.checkpoint_stride = ga::GaConfig{}.eval_checkpoint_stride;
  const ga::KernelBatchDecoder<domains::SlidingTile> kernel(p, opt, false);
  util::Rng rng(4);
  std::vector<ga::Genome> genomes;
  std::vector<ga::Evaluation<domains::TileState>> evals(200);
  std::vector<ga::detail::KernelSlot<domains::TileState>> slots(200);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    genomes.push_back(random_genome(static_cast<std::size_t>(4 * n * n), rng));
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].genes = genomes[i];
    slots[i].ev = &evals[i];
  }
  ga::detail::KernelScratch<domains::TileState> scratch;
  kernel.run(p.initial_state(), slots, scratch, nullptr);
  std::int64_t ops = 0;
  for (const auto& ev : evals) ops += static_cast<std::int64_t>(ev.ops.size());
  for (auto _ : state) {
    kernel.run(p.initial_state(), slots, scratch, nullptr);
    benchmark::DoNotOptimize(evals.data());
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_KernelDecodeTile)->Arg(3)->Arg(4)->Arg(5);

void BM_EvaluateFull(benchmark::State& state) {
  const domains::Hanoi h(6);
  ga::GaConfig cfg;
  cfg.initial_length = 63;
  cfg.max_length = 630;
  util::Rng rng(5);
  const auto genes = random_genome(315, rng);
  std::vector<int> scratch;
  for (auto _ : state) {
    auto ev = ga::evaluate(h, cfg, h.initial_state(), genes, scratch);
    benchmark::DoNotOptimize(ev.fitness);
  }
}
BENCHMARK(BM_EvaluateFull);

void BM_CrossoverRandom(benchmark::State& state) {
  util::Rng rng(6);
  ga::Individual<domains::HanoiState> a, b;
  a.genes = random_genome(static_cast<std::size_t>(state.range(0)), rng);
  b.genes = random_genome(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto ca = a, cb = b;
    ga::crossover_random(ca, cb, 10 * a.genes.size(), rng);
    benchmark::DoNotOptimize(ca.genes.data());
  }
}
BENCHMARK(BM_CrossoverRandom)->Arg(64)->Arg(640);

void BM_CrossoverStateAware(benchmark::State& state) {
  const domains::Hanoi h(6);
  util::Rng rng(7);
  ga::Individual<domains::HanoiState> a, b;
  a.genes = random_genome(static_cast<std::size_t>(state.range(0)), rng);
  b.genes = random_genome(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<int> scratch;
  ga::DecodeOptions opt;
  opt.truncate_at_goal = false;
  a.eval = ga::decode_indirect(h, h.initial_state(), a.genes, opt, scratch);
  b.eval = ga::decode_indirect(h, h.initial_state(), b.genes, opt, scratch);
  std::vector<std::size_t> buf;
  for (auto _ : state) {
    auto ca = a, cb = b;
    ga::crossover_state_aware(ca, cb, 10 * a.genes.size(),
                              ga::StateMatchKind::kValidOps, rng, buf);
    benchmark::DoNotOptimize(ca.genes.data());
  }
}
BENCHMARK(BM_CrossoverStateAware)->Arg(64)->Arg(640);

void BM_MutateGenome(benchmark::State& state) {
  util::Rng rng(8);
  auto genes = random_genome(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    ga::mutate(genes, 0.01, rng);
    benchmark::DoNotOptimize(genes.data());
  }
}
BENCHMARK(BM_MutateGenome)->Arg(640);

void BM_BitsetContainsAll(benchmark::State& state) {
  util::Rng rng(9);
  util::DynamicBitset big(static_cast<std::size_t>(state.range(0)));
  util::DynamicBitset small(static_cast<std::size_t>(state.range(0)));
  for (int i = 0; i < state.range(0) / 2; ++i) big.set(rng.below(state.range(0)));
  for (int i = 0; i < 4; ++i) small.set(rng.below(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(big.contains_all(small));
  }
}
BENCHMARK(BM_BitsetContainsAll)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace
