// perfbench_micro: micro-timings of the public functions each layer runs
// per request, on inputs shaped like the benchmark's workloads.
//
//   perfbench_micro FRAMES.ndjson FILE.grid
//
// FRAMES holds the submit frames a served workload sends; FILE.grid is the
// plan-grid scenario whose kernel-less decode is timed. GA operators run at
// plan-hanoi7's population shape (pop 200, genome 127, max length 1270).
// Prints one JSON object of per-layer metrics; each value is the median of
// several timed repetitions.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/crossover.hpp"
#include "core/decoder.hpp"
#include "core/mutation.hpp"
#include "core/selection.hpp"
#include "dist/hash_ring.hpp"
#include "dist/migration.hpp"
#include "domains/hanoi.hpp"
#include "grid/scenario_reader.hpp"
#include "server/plan_service.hpp"
#include "server/problem_spec.hpp"
#include "server/request_codec.hpp"
#include "server/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;

volatile std::uint64_t g_sink = 0;

/// Nanoseconds per operation of `body`, which performs `ops` operations per
/// call: the median of 7 repetitions of at least 20 ms each.
template <typename F>
double ns_per_op(F&& body, double ops) {
  using clock = std::chrono::steady_clock;
  std::vector<double> reps;
  for (int rep = 0; rep < 7; ++rep) {
    std::size_t calls = 0;
    const auto t0 = clock::now();
    auto t1 = t0;
    do {
      body();
      ++calls;
      t1 = clock::now();
    } while (t1 - t0 < std::chrono::milliseconds(20));
    reps.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   (static_cast<double>(calls) * ops));
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

ga::Genome random_genome(std::size_t len, util::Rng& rng) {
  ga::Genome g(len);
  for (auto& x : g) x = rng.uniform();
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_micro FRAMES.ndjson FILE.grid\n");
    return 2;
  }
  util::Rng rng(12345);

  // --- core + domains at plan-hanoi7's shape -------------------------------
  const domains::Hanoi hanoi(7);
  ga::GaConfig cfg;
  cfg.population_size = 200;
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.initial_length = static_cast<std::size_t>(hanoi.optimal_length());
  cfg.max_length = 10 * cfg.initial_length;
  ga::DecodeOptions opt;
  opt.checkpoint_stride = cfg.eval_checkpoint_stride;

  std::vector<ga::Genome> pop;
  std::vector<ga::Evaluation<domains::Hanoi::StateT>> evals;
  std::vector<int> scratch;
  std::vector<double> fitness;
  for (std::size_t i = 0; i < cfg.population_size; ++i) {
    pop.push_back(random_genome(cfg.initial_length, rng));
    evals.push_back(ga::decode_indirect(hanoi, hanoi.initial_state(),
                                        pop.back(), opt, scratch));
    fitness.push_back(rng.uniform());
  }
  std::vector<std::size_t> pairs;
  for (std::size_t i = 0; i < 4096; ++i) pairs.push_back(rng.below(pop.size()));

  const double select_ns = ns_per_op(
      [&] {
        for (int i = 0; i < 1000; ++i) {
          g_sink = g_sink +
                   ga::tournament_select(fitness, cfg.tournament_size, rng);
        }
      },
      1000);

  ga::Genome buf1(cfg.max_length), buf2(cfg.max_length);
  ga::GeneLane out1{buf1.data(), buf1.size(), 0};
  ga::GeneLane out2{buf2.data(), buf2.size(), 0};
  ga::CrossoverStats xstats;
  ga::CrossoverScratch xscr;
  std::size_t pair = 0;
  const double crossover_ns = ns_per_op(
      [&] {
        for (int i = 0; i < 100; ++i) {
          const std::size_t a = pairs[pair++ % pairs.size()];
          const std::size_t b = pairs[pair++ % pairs.size()];
          std::size_t da = 0, db = 0;
          ga::crossover_lanes_into(cfg, pop[a], evals[a].op_signatures, pop[b],
                                   evals[b].op_signatures, rng, xstats, xscr,
                                   out1, out2, da, db);
        }
      },
      100);

  ga::Genome child = pop[0];
  const double mutate_ns = ns_per_op(
      [&] {
        for (int i = 0; i < 100; ++i) {
          std::size_t first = ga::kCleanGenome;
          g_sink = g_sink + ga::mutate_tracked(std::span<ga::Gene>(child),
                                               cfg.mutation_rate, rng, first);
        }
      },
      100);

  const double splice_ns = ns_per_op(
      [&] {
        for (int i = 0; i < 100; ++i) {
          const auto& a = pop[pairs[pair++ % pairs.size()]];
          const auto& b = pop[pairs[pair++ % pairs.size()]];
          ga::detail::splice_lane(a, b, rng.below(a.size()),
                                  rng.below(b.size()), cfg.max_length, out1);
        }
      },
      100);

  const ga::KernelBatchDecoder<domains::Hanoi> kernel(hanoi, opt, false);
  std::vector<ga::detail::KernelSlot<domains::Hanoi::StateT>> slots(pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) {
    slots[i].genes = pop[i];
    slots[i].ev = &evals[i];
  }
  kernel.run(hanoi.initial_state(), slots);
  double kernel_genes = 0.0;
  for (const auto& ev : evals) {
    kernel_genes += static_cast<double>(ev.ops.size());
  }
  const double kernel_ns = ns_per_op(
      [&] { kernel.run(hanoi.initial_state(), slots); }, kernel_genes);

  // --- scalar decode on the plan-grid scenario -----------------------------
  const grid::ScenarioFile file = grid::parse_scenario_file(argv[2]);
  const grid::WorkflowProblem workflow = file.problem();
  const std::size_t wf_len =
      std::max<std::size_t>(4, file.scenario.catalog.program_count());
  std::vector<ga::Genome> wf_pop;
  double wf_genes = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    wf_pop.push_back(random_genome(wf_len, rng));
    wf_genes += static_cast<double>(
        ga::decode_indirect(workflow, workflow.initial_state(), wf_pop.back(),
                            opt, scratch)
            .ops.size());
  }
  const double scalar_ns = ns_per_op(
      [&] {
        for (const auto& g : wf_pop) {
          g_sink = g_sink + ga::decode_indirect(workflow,
                                                workflow.initial_state(), g,
                                                opt, scratch)
                                .ops.size();
        }
      },
      wf_genes);

  // --- server codec on the workload's own frames ---------------------------
  std::vector<std::string> frames;
  std::ifstream in(argv[1]);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) frames.push_back(line);
  }
  std::vector<serve::PlanRequest> reqs;
  for (const std::string& frame : frames) {
    serve::WireMessage msg;
    serve::PlanRequest req;
    std::string error;
    if (!serve::parse_wire_message(frame, msg, error) ||
        !serve::parse_plan_request(msg, req, error)) {
      std::fprintf(stderr, "perfbench_micro: bad frame %s: %s\n", frame.c_str(),
                   error.c_str());
      return 1;
    }
    reqs.push_back(std::move(req));
  }
  if (reqs.empty()) {
    std::fprintf(stderr, "perfbench_micro: no frames\n");
    return 1;
  }
  const double n_frames = static_cast<double>(frames.size());
  const double parse_ns = ns_per_op(
      [&] {
        for (const std::string& frame : frames) {
          serve::WireMessage msg;
          serve::PlanRequest req;
          std::string error;
          g_sink = g_sink + serve::parse_wire_message(frame, msg, error) +
                   serve::parse_plan_request(msg, req, error);
        }
      },
      n_frames);
  const double render_ns = ns_per_op(
      [&] {
        for (const auto& req : reqs) {
          g_sink = g_sink + serve::render_submit_line(req).size();
        }
      },
      n_frames);
  std::vector<serve::Fingerprint> fps;
  const double fingerprint_ns = ns_per_op(
      [&] {
        fps.clear();
        for (const auto& req : reqs) {
          fps.push_back(serve::PlanService::fingerprint(req));
        }
      },
      n_frames);

  // --- dist: the route-mix ring and island migrant frames ------------------
  dist::HashRing ring;
  ring.add("127.0.0.1:1");
  ring.add("127.0.0.1:2");
  const double ring_ns = ns_per_op(
      [&] {
        for (const auto& fp : fps) {
          g_sink = g_sink + ring.chain(fp.hi ^ fp.lo, 2).size();
        }
      },
      static_cast<double>(fps.size()));

  std::string spec_error;
  const auto island_spec = serve::ProblemSpec::parse("hanoi:4", spec_error);
  const std::size_t island_len =
      serve::tuned_config(*island_spec, ga::GaConfig{}).initial_length;
  dist::MigrantBatch batch;
  for (int i = 0; i < 2; ++i) {
    batch.genomes.push_back(random_genome(island_len, rng));
  }
  const double codec_ns = ns_per_op(
      [&] {
        const auto back = dist::parse_migrants(dist::encode_migrants(batch));
        g_sink = g_sink + (back ? back->genomes.size() : 0);
      },
      1);

  std::printf(
      "{\"core.select_ns_per_child\":%.6f,\"core.crossover_ns_per_pair\":%.6f,"
      "\"core.mutate_ns_per_child\":%.6f,\"core.splice_ns_per_child\":%.6f,"
      "\"domains.kernel_decode_ns_per_gene\":%.6f,"
      "\"domains.scalar_decode_ns_per_gene\":%.6f,"
      "\"server.parse_us_per_frame\":%.6f,\"server.render_us_per_frame\":%.6f,"
      "\"server.fingerprint_us\":%.6f,\"dist.ring_lookup_ns\":%.6f,"
      "\"dist.migrant_codec_us\":%.6f}\n",
      select_ns, crossover_ns, mutate_ns, splice_ns, kernel_ns, scalar_ns,
      parse_ns / 1e3, render_ns / 1e3, fingerprint_ns / 1e3, ring_ns,
      codec_ns / 1e3);
  return 0;
}
