// Perf-regression gate for the SIMD-kernel decode: a ~5 second
// LUT-vs-valid_ops smoke on the BENCH_eval.json workload shape (Hanoi-7,
// pop 200, mixed crossover) that FAILS (exit 1) when the evaluation pass
// over the kernel's LUT does not clear 1.5x the same pass over valid_ops
// (the same PhaseRunner over WithoutKernel<Hanoi>, see without_kernel.hpp)
// in evaluations/second. The gate's slack absorbs scheduler noise on a
// loaded CI box while still catching a real regression (a fallback off the
// LUT, a kernel pessimization, a lane-copy blowup).
//
// Registered as the `bench_eval_regression` ctest under CONFIGURATIONS perf
// (label `perf`), so a plain tier-1 `ctest` never runs it:
//   ctest -C perf -L perf
#include <cstdint>
#include <cstdio>

#include "core/engine.hpp"
#include "core/multiphase.hpp"
#include "domains/hanoi.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"
#include "without_kernel.hpp"

namespace {

std::uint64_t evaluations_total() {
  const auto snap = gaplan::obs::snapshot_metrics();
  const auto* c = snap.find_counter("ga.evaluations");
  return c != nullptr ? c->value : 0;
}

template <typename P>
double evals_per_sec(const P& problem, const gaplan::ga::GaConfig& cfg,
                     std::uint64_t seed, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t before = evaluations_total();
    gaplan::util::Timer timer;
    gaplan::util::Rng rng(seed);
    gaplan::ga::run_multiphase(problem, cfg, rng);
    const double secs = timer.seconds();
    const double rate =
        secs > 0.0
            ? static_cast<double>(evaluations_total() - before) / secs
            : 0.0;
    if (rate > best) best = rate;
  }
  return best;
}

}  // namespace

int main() {
  using namespace gaplan;
  constexpr double kFloor = 1.5;

  const domains::Hanoi hanoi(7);
  ga::GaConfig base;
  base.population_size = 200;
  base.phases = 2;
  base.generations = 15;  // ~2s/config/rep on the reference single-core box
  base.crossover = ga::CrossoverKind::kMixed;
  base.initial_length = static_cast<std::size_t>(hanoi.optimal_length());
  base.max_length = 10 * base.initial_length;
  base.eval_checkpoint_stride = 2;
  base.stop_on_valid = false;

  const bench::WithoutKernel<domains::Hanoi> per_slot(hanoi);

  const std::uint64_t seed = 42;
  const int reps = 2;
  const double inc_rate = evals_per_sec(per_slot, base, seed, reps);
  const double soa_rate = evals_per_sec(hanoi, base, seed, reps);
  const double speedup = inc_rate > 0.0 ? soa_rate / inc_rate : 0.0;

  std::printf("bench_eval_regression: incremental %.0f evals/s, soa %.0f "
              "evals/s, speedup %.2fx (floor %.2fx)\n",
              inc_rate, soa_rate, speedup, kFloor);
  if (speedup < kFloor) {
    std::fprintf(stderr,
                 "FAIL: kernel decode speedup %.2fx below the %.2fx floor\n",
                 speedup, kFloor);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
