// bench_dist: throughput scaling of the distributed deployment — an
// in-process RouterService fronting 1/2/4 real gaplan_worker processes —
// against the single-worker baseline, plus the cross-worker cache-parity
// and failover measurements the distribution layer exists for.
//
// On this repro environment's single hardware thread the GA gains nothing
// from CPU parallelism, so the scaling headline is *cache-capacity*
// scaling, which is the honest claim of a distributed plan-cache tier: the
// workload cycles K=12 distinct requests through workers whose LRU holds
// C=8 plans each. One worker thrashes (K > C, near-cyclic access evicts
// every plan before its reuse) and replans almost every request; with the
// ring partitioning the keyspace, each worker's share fits (seeds are
// greedily picked so every partition holds <= C keys at both 2 and 4
// workers) and all but the first touch of each key is a warm hit. The
// speedup is GA work avoided, not threads added.
//
// Worker binary: $GAPLAN_WORKER_BIN, else <dir(argv[0])>/../examples/
// gaplan_worker. Workers are spawned once on ephemeral ports; caches are
// swept cold (cache_del of every workload key) between sweep points so each
// point starts cold. Gossip is OFF for the scaling sweep (it would blur
// whose cache answered); a separate two-worker phase with --peer wired both
// ways measures cross-worker parity: submit through the router, then probe
// the NON-primary worker directly until the gossiped insert lands.
//
// Failover phase: two fresh workers, four closed-loop clients over cold
// requests; once the doomed worker reports a request mid-plan it is
// SIGKILLed. Every submitted request must still complete (the router
// replays idempotent submits on the survivor), so lost == 0 and
// retries >= 1 are hard assertions of the report schema.
//
// Writes BENCH_dist.json (schema checked by scripts/check_bench.py):
// worker_sweep (1/2/4), speedup_2_workers, speedup_4_workers,
// cross_worker, failover.
#include "dist/net.hpp"

#ifndef GAPLAN_TCP
#include <cstdio>
int main() {
  std::fprintf(stderr, "bench_dist: unsupported on this platform\n");
  return 0;
}
#else

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/dist_lint.hpp"
#include "bench_common.hpp"
#include "dist/cache_wire.hpp"
#include "dist/dist_config.hpp"
#include "dist/hash_ring.hpp"
#include "dist/router.hpp"
#include "server/plan_service.hpp"
#include "server/problem_spec.hpp"
#include "server/request_codec.hpp"
#include "server/wire.hpp"
#include "util/timer.hpp"

namespace {

using namespace gaplan;

constexpr std::size_t kWorkerCache = 8;   // C: per-worker LRU capacity
constexpr std::size_t kDistinct = 12;     // K: distinct fingerprints (> C)
constexpr std::size_t kClients = 4;       // failover-phase client threads
constexpr std::size_t kPasses = 8;        // requests = K * passes

/// One spawned gaplan_worker process. The ephemeral port is read from the
/// child's "listening on 127.0.0.1:<port>" stdout line over a pipe, so
/// there is no bind race.
struct WorkerProc {
  pid_t pid = -1;
  int port = 0;

  std::string id() const { return "127.0.0.1:" + std::to_string(port); }

  void kill_now() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
  }
};

std::string worker_binary(const char* argv0) {
  if (const char* env = std::getenv("GAPLAN_WORKER_BIN")) return env;
  std::string path = argv0;
  const auto slash = path.find_last_of('/');
  path.resize(slash == std::string::npos ? 0 : slash);
  if (path.empty()) path = ".";
  return path + "/../examples/gaplan_worker";
}

/// Reserves a free localhost port by binding port 0 and closing. The tiny
/// window before the worker re-binds it is acceptable here: the peers of a
/// gossip pair must be known at spawn time, so both ports are picked first.
int reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    std::perror("bench_dist: reserve_port");
    std::exit(1);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

WorkerProc spawn_worker(const std::string& bin,
                        const std::vector<std::string>& peer_ids,
                        int fixed_port = 0) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("bench_dist: pipe");
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("bench_dist: fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<std::string> args = {bin,       "--tcp",
                                     std::to_string(fixed_port),
                                     "--cache", std::to_string(kWorkerCache),
                                     "--cache-shards", "1",
                                     "--workers", "1", "--queue", "256"};
    for (const std::string& peer : peer_ids) {
      args.push_back("--peer");
      args.push_back(peer);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    std::perror("bench_dist: execv");
    std::_Exit(127);
  }
  ::close(fds[1]);
  std::string line;
  char c;
  while (::read(fds[0], &c, 1) == 1 && c != '\n') line += c;
  ::close(fds[0]);
  WorkerProc w;
  w.pid = pid;
  const auto colon = line.find_last_of(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "bench_dist: worker did not report a port: '%s'\n",
                 line.c_str());
    std::exit(1);
  }
  w.port = std::atoi(line.c_str() + colon + 1);
  return w;
}

/// One direct RPC to a worker (fresh connection per call — these are
/// control-plane probes, not the measured path).
bool worker_rpc(const WorkerProc& w, const std::string& line,
                serve::WireMessage& out) {
  dist::Conn conn;
  if (!conn.connect("127.0.0.1", w.port)) return false;
  std::string resp;
  if (!conn.roundtrip(line, resp)) return false;
  std::string err;
  return serve::parse_wire_message(resp, out, err);
}

/// Asks the worker to shut down and reaps it, so it exits through main (and
/// flushes what an instrumented build records at exit); SIGKILL only if it
/// is still running after five seconds.
void stop_worker(WorkerProc& w) {
  if (w.pid <= 0) return;
  serve::WireMessage msg;
  worker_rpc(w, "{\"cmd\":\"shutdown\"}", msg);
  for (int i = 0; i < 500; ++i) {
    int status = 0;
    if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
      w.pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  w.kill_now();
}

void wait_ready(const WorkerProc& w) {
  for (int i = 0; i < 200; ++i) {
    serve::WireMessage msg;
    if (worker_rpc(w, "{\"cmd\":\"ping\"}", msg) &&
        msg.get_bool("ok").value_or(false)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  std::fprintf(stderr, "bench_dist: worker on port %d never became ready\n",
               w.port);
  std::exit(1);
}

serve::PlanRequest make_request(std::uint64_t seed, const ga::GaConfig& cfg) {
  std::string err;
  const auto spec = serve::ProblemSpec::parse("hanoi:4", err);
  serve::PlanRequest req;
  req.problem = *spec;
  req.config = cfg;
  req.seed = seed;
  return req;
}

/// Greedily picks K seeds whose ring partitions stay within the per-worker
/// cache at BOTH the 2-worker and 4-worker memberships, so the scaling
/// sweep's warm-hit claim does not hinge on ring luck.
std::vector<std::uint64_t> pick_seeds(const std::vector<WorkerProc>& workers,
                                      const ga::GaConfig& cfg,
                                      std::int64_t vnodes) {
  dist::HashRing ring2(static_cast<std::size_t>(vnodes));
  dist::HashRing ring4(static_cast<std::size_t>(vnodes));
  for (std::size_t i = 0; i < 4; ++i) {
    if (i < 2) ring2.add(workers[i].id());
    ring4.add(workers[i].id());
  }
  std::unordered_map<std::string, std::size_t> load2, load4;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; seeds.size() < kDistinct && s < 4096; ++s) {
    const auto fp = serve::PlanService::fingerprint(make_request(s, cfg));
    const std::uint64_t key = fp.hi ^ fp.lo;
    const auto own2 = ring2.chain(key, 1);
    const auto own4 = ring4.chain(key, 1);
    if (own2.empty() || own4.empty()) continue;
    if (load2[own2[0]] >= kWorkerCache || load4[own4[0]] >= kWorkerCache) {
      continue;
    }
    ++load2[own2[0]];
    ++load4[own4[0]];
    seeds.push_back(s);
  }
  if (seeds.size() < kDistinct) {
    std::fprintf(stderr, "bench_dist: could not balance %zu seeds\n",
                 kDistinct);
    std::exit(1);
  }
  return seeds;
}

dist::RouterConfig router_config(const std::vector<WorkerProc>& workers,
                                 std::size_t n) {
  dist::RouterConfig cfg;
  for (std::size_t i = 0; i < n; ++i) {
    std::string err;
    const auto spec = dist::parse_backend(workers[i].id(), &err);
    cfg.backends.push_back(*spec);
  }
  return cfg;
}

struct SweepResult {
  std::size_t workers = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double cache_hit_rate = 0.0;  // router-observed distributed-cache hits
  std::uint64_t retries = 0;
};

std::uint64_t response_id(const serve::WireMessage& msg) {
  return static_cast<std::uint64_t>(msg.get_number("id").value_or(0.0));
}

/// Closed-loop load through an in-process RouterService: `clients` threads
/// split `lines` (pre-rendered submit frames), each submits then blocks on
/// wait. Counts a completion only for a terminal done response. The scaling
/// sweep runs one client — a strict cycle through the key set is the
/// deterministic worst case for the single small LRU, so the thrash-vs-fit
/// contrast does not depend on thread interleaving.
SweepResult run_sweep(const std::vector<WorkerProc>& workers, std::size_t n,
                      const std::vector<std::string>& lines,
                      std::size_t clients) {
  dist::RouterConfig cfg = router_config(workers, n);
  dist::enforce_router_config(cfg, "bench_dist");
  dist::RouterService router(cfg);
  router.start();

  std::vector<std::size_t> done(clients, 0);
  const std::size_t per_client = lines.size() / clients;
  util::Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::string& line = lines[c * per_client + i];
        bool close_after = false;
        serve::WireMessage resp;
        std::string err;
        const std::string sub = router.handle_line(line, close_after);
        if (!serve::parse_wire_message(sub, resp, err) ||
            !resp.get_bool("ok").value_or(false)) {
          continue;
        }
        const std::string* state = resp.get_string("state");
        if (state && *state == "done") {  // answered from the cache tier
          ++done[c];
          continue;
        }
        serve::JsonWriter w;
        w.field("cmd", "wait")
            .field("id", response_id(resp))
            .field("timeout_ms", static_cast<std::uint64_t>(120000));
        const std::string fin = router.handle_line(w.finish(), close_after);
        serve::WireMessage finmsg;
        if (serve::parse_wire_message(fin, finmsg, err) &&
            finmsg.get_bool("ok").value_or(false)) {
          const std::string* fs = finmsg.get_string("state");
          if (fs && *fs == "done") ++done[c];
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  SweepResult r;
  r.workers = n;
  r.seconds = wall.seconds();
  r.submitted = per_client * clients;
  for (const std::size_t d : done) r.completed += d;
  r.requests_per_sec =
      r.seconds > 0.0 ? static_cast<double>(r.completed) / r.seconds : 0.0;
  const auto stats = router.stats();
  const std::uint64_t hits = stats.cache_hits_primary + stats.cache_hits_fanout;
  r.cache_hit_rate = stats.submitted > 0
                         ? static_cast<double>(hits) /
                               static_cast<double>(stats.submitted)
                         : 0.0;
  r.retries = stats.retries;
  router.stop();
  return r;
}

/// Evicts every workload key from every worker so each sweep starts cold.
void sweep_caches(const std::vector<WorkerProc>& workers,
                  const std::vector<serve::Fingerprint>& fps) {
  for (const WorkerProc& w : workers) {
    for (const auto& fp : fps) {
      serve::WireMessage msg;
      worker_rpc(w, dist::render_cache_del(fp), msg);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  const bench::BenchParams p = bench::resolve(/*quick_runs=*/1,
                                              /*quick_gens=*/40,
                                              /*paper_runs=*/3,
                                              /*paper_gens=*/80);
  ga::GaConfig ga_cfg;
  ga_cfg.population_size = p.population;
  ga_cfg.generations = p.generations;
  ga_cfg.phases = 4;

  const std::string bin = worker_binary(argv[0]);
  std::printf("bench_dist: worker binary %s\n", bin.c_str());
  std::printf("bench_dist: K=%zu distinct over cache C=%zu, "
              "pop=%zu gens=%zu\n",
              kDistinct, kWorkerCache, p.population, p.generations);

  std::vector<WorkerProc> workers;
  for (int i = 0; i < 4; ++i) workers.push_back(spawn_worker(bin, {}));
  for (const auto& w : workers) wait_ready(w);

  const dist::RouterConfig probe_cfg;  // defaults: vnodes for seed balance
  const std::vector<std::uint64_t> seeds =
      pick_seeds(workers, ga_cfg, probe_cfg.vnodes_per_unit);

  std::vector<serve::Fingerprint> fps;
  std::vector<std::string> submit_lines;
  for (const std::uint64_t s : seeds) {
    const auto req = make_request(s, ga_cfg);
    fps.push_back(serve::PlanService::fingerprint(req));
    submit_lines.push_back(serve::render_submit_line(req));
  }
  // Request list: a strict cycle through the key set — every reuse of a
  // key has K-1 distinct keys between it and the previous use, the worst
  // case for an LRU of capacity C < K.
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kDistinct * kPasses; ++i) {
    lines.push_back(submit_lines[i % kDistinct]);
  }

  std::vector<SweepResult> sweep;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    sweep_caches(workers, fps);
    sweep.push_back(run_sweep(workers, n, lines, /*clients=*/1));
    const SweepResult& r = sweep.back();
    std::printf("  workers=%zu  %7.1f req/s  hit-rate %.2f  (%zu/%zu done, "
                "%.2fs)\n",
                n, r.requests_per_sec, r.cache_hit_rate, r.completed,
                r.submitted, r.seconds);
  }
  const double speedup2 = sweep[0].requests_per_sec > 0.0
                              ? sweep[1].requests_per_sec /
                                    sweep[0].requests_per_sec
                              : 0.0;
  const double speedup4 = sweep[0].requests_per_sec > 0.0
                              ? sweep[2].requests_per_sec /
                                    sweep[0].requests_per_sec
                              : 0.0;
  std::printf("  speedup: %.2fx at 2 workers, %.2fx at 4 workers\n", speedup2,
              speedup4);
  for (auto& w : workers) stop_worker(w);

  // --- Cross-worker cache parity: gossip-wired pair. ---------------------
  // Gossip peers are configured at spawn, so both ports are reserved first
  // and each worker is started already pointing at the other.
  const int port_a = reserve_port();
  const int port_b = reserve_port();
  WorkerProc ga_ =
      spawn_worker(bin, {"127.0.0.1:" + std::to_string(port_b)}, port_a);
  WorkerProc gb =
      spawn_worker(bin, {"127.0.0.1:" + std::to_string(port_a)}, port_b);
  wait_ready(ga_);
  wait_ready(gb);

  std::size_t cross_probes = 0, cross_hits = 0;
  {
    dist::RouterConfig cfg;
    std::string err;
    cfg.backends.push_back(*dist::parse_backend(ga_.id(), &err));
    cfg.backends.push_back(*dist::parse_backend(gb.id(), &err));
    cfg.probe_all_on_miss = false;  // parity must come from gossip alone
    dist::RouterService router(cfg);
    router.start();
    dist::HashRing ring(static_cast<std::size_t>(cfg.vnodes_per_unit));
    ring.add(ga_.id());
    ring.add(gb.id());
    for (std::size_t i = 0; i < 6; ++i) {
      const auto req = make_request(9000 + i, ga_cfg);
      const auto fp = serve::PlanService::fingerprint(req);
      bool close_after = false;
      serve::WireMessage resp;
      const std::string sub =
          router.handle_line(serve::render_submit_line(req), close_after);
      if (!serve::parse_wire_message(sub, resp, err)) continue;
      serve::JsonWriter w;
      w.field("cmd", "wait")
          .field("id", response_id(resp))
          .field("timeout_ms", static_cast<std::uint64_t>(120000));
      router.handle_line(w.finish(), close_after);
      // Probe the worker that did NOT own the key; only gossip can have
      // warmed it.
      const auto owner = ring.chain(fp.hi ^ fp.lo, 1);
      const WorkerProc& other = owner[0] == ga_.id() ? gb : ga_;
      ++cross_probes;
      for (int spin = 0; spin < 100; ++spin) {
        serve::WireMessage probe;
        if (worker_rpc(other, dist::render_cache_probe(fp), probe) &&
            probe.get_bool("hit").value_or(false)) {
          ++cross_hits;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    router.stop();
  }
  const double cross_rate =
      cross_probes > 0
          ? static_cast<double>(cross_hits) / static_cast<double>(cross_probes)
          : 0.0;
  std::printf("  cross-worker parity: %zu/%zu non-primary probes hit after "
              "gossip\n",
              cross_hits, cross_probes);
  stop_worker(ga_);
  stop_worker(gb);

  // --- Failover: kill one of two workers with a request mid-plan. --------
  WorkerProc fa = spawn_worker(bin, {});
  WorkerProc fb = spawn_worker(bin, {});
  wait_ready(fa);
  wait_ready(fb);
  std::size_t fo_submitted = 0, fo_completed = 0;
  std::uint64_t fo_retries = 0, fo_mark_downs = 0;
  {
    dist::RouterConfig cfg;
    std::string err;
    cfg.backends.push_back(*dist::parse_backend(fa.id(), &err));
    cfg.backends.push_back(*dist::parse_backend(fb.id(), &err));
    cfg.heartbeat_interval_ms = 100;
    dist::RouterService router(cfg);
    router.start();

    // Cold, never-cached seeds so every request is a real GA run.
    std::vector<std::string> fo_lines;
    for (std::size_t i = 0; i < 24; ++i) {
      fo_lines.push_back(
          serve::render_submit_line(make_request(50000 + i, ga_cfg)));
    }
    std::atomic<std::size_t> completed{0};
    std::thread killer([&] {
      // Wait until fb reports a request actively planning, then kill it:
      // at that instant the router has an in-flight wait on fb, so the
      // retry path is exercised deterministically.
      for (int spin = 0; spin < 4000; ++spin) {
        serve::WireMessage st;
        if (!worker_rpc(fb, "{\"cmd\":\"stats\"}", st)) break;  // already gone
        if (st.get_number("planning").value_or(0.0) >= 1.0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      fb.kill_now();
    });
    std::vector<std::thread> threads;
    const std::size_t per_client = fo_lines.size() / kClients;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = 0; i < per_client; ++i) {
          bool close_after = false;
          serve::WireMessage resp;
          std::string perr;
          const std::string sub =
              router.handle_line(fo_lines[c * per_client + i], close_after);
          if (!serve::parse_wire_message(sub, resp, perr) ||
              !resp.get_bool("ok").value_or(false)) {
            continue;
          }
          serve::JsonWriter w;
          w.field("cmd", "wait")
              .field("id", response_id(resp))
              .field("timeout_ms", static_cast<std::uint64_t>(120000));
          const std::string fin = router.handle_line(w.finish(), close_after);
          serve::WireMessage finmsg;
          if (serve::parse_wire_message(fin, finmsg, perr) &&
              finmsg.get_bool("ok").value_or(false)) {
            const std::string* fs = finmsg.get_string("state");
            if (fs && *fs == "done") completed.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    killer.join();
    fo_submitted = per_client * kClients;
    fo_completed = completed.load();
    const auto stats = router.stats();
    fo_retries = stats.retries;
    for (const auto& b : router.pool().snapshot()) {
      fo_mark_downs += b.mark_downs;
    }
    router.stop();
  }
  std::printf("  failover: %zu/%zu completed after worker kill, retries=%llu, "
              "mark_downs=%llu\n",
              fo_completed, fo_submitted,
              static_cast<unsigned long long>(fo_retries),
              static_cast<unsigned long long>(fo_mark_downs));
  stop_worker(fa);
  stop_worker(fb);  // already killed on purpose by the failover phase

  const std::string path = bench::csv_path("BENCH_dist.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_dist\",\n  \"schema_version\": 1,\n");
  std::fprintf(f,
               "  \"workload\": \"closed-loop hanoi:4, %zu distinct keys over "
               "per-worker cache %zu, strict cycle, %zu requests/sweep, pop "
               "%zu, gens %zu\",\n",
               kDistinct, kWorkerCache, kDistinct * kPasses,
               p.population, p.generations);
  std::fprintf(f, "  \"worker_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& r = sweep[i];
    std::fprintf(f,
                 "    {\"workers\": %zu, \"seconds\": %.6f, "
                 "\"requests_per_sec\": %.4f,\n     \"submitted\": %zu, "
                 "\"completed\": %zu, \"cache_hit_rate\": %.4f, "
                 "\"retries\": %llu}%s\n",
                 r.workers, r.seconds, r.requests_per_sec, r.submitted,
                 r.completed, r.cache_hit_rate,
                 static_cast<unsigned long long>(r.retries),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_2_workers\": %.4f,\n", speedup2);
  std::fprintf(f, "  \"speedup_4_workers\": %.4f,\n", speedup4);
  std::fprintf(f,
               "  \"cross_worker\": {\"requests\": %zu, \"hits\": %zu, "
               "\"cross_worker_hit_rate\": %.4f},\n",
               cross_probes, cross_hits, cross_rate);
  std::fprintf(f,
               "  \"failover\": {\"submitted\": %zu, \"completed\": %zu, "
               "\"lost\": %zu, \"retries\": %llu, \"mark_downs\": %llu}\n",
               fo_submitted, fo_completed, fo_submitted - fo_completed,
               static_cast<unsigned long long>(fo_retries),
               static_cast<unsigned long long>(fo_mark_downs));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  bench::export_metrics("bench_dist");
  return 0;
}

#endif  // GAPLAN_TCP
