// gaplan_worker: one backend process of a distributed gaplan deployment.
//
// A PlanService behind the localhost TCP line server, answering the
// gaplan_serve protocol (server/protocol.hpp) plus the distribution verbs
// the router drives (dist/worker_verbs.hpp): ping, the cache tier
// (cache_probe/cache_put/cache_del) and the island-shard verbs.
//
// With --peer HOST:PORT (repeatable) the worker gossips its own cache
// inserts/evictions to those peers (best-effort, dist/gossip.hpp), so a plan
// computed on any worker warms every worker.
//
//   gaplan_worker --tcp 5001 --cache 64 --peer 127.0.0.1:5002
//
// --tcp 0 binds an ephemeral port; the chosen port is printed on stdout as
// "gaplan_worker: listening on 127.0.0.1:<port>" (scripts parse this line).

#include "server/line_server.hpp"

#ifndef GAPLAN_TCP
#include <cstdio>
int main() {
  std::fprintf(stderr, "gaplan_worker: unsupported on this platform\n");
  return 2;
}
#else

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/cache_wire.hpp"
#include "dist/dist_config.hpp"
#include "dist/gossip.hpp"
#include "dist/worker_verbs.hpp"
#include "obs/report.hpp"
#include "server/plan_service.hpp"
#include "server/protocol.hpp"
#include "server/server_config.hpp"

namespace {

using gaplan::serve::PlanService;
using gaplan::serve::ServerConfig;

constexpr gaplan::serve::ServerFlag kServerFlags[] = {
    {"--workers", "workers"},
    {"--queue", "queue-capacity"},
    {"--cache", "cache-capacity"},
    {"--cache-shards", "cache-shards"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --tcp PORT [--config FILE] [--workers N] "
               "[--queue N] [--cache N] [--cache-shards N] "
               "[--peer HOST:PORT]...\n",
               argv0);
  return 2;
}

int bad_value(const std::string& flag, const char* value) {
  std::fprintf(stderr, "gaplan_worker: bad value '%s' for %s\n", value,
               flag.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig cfg;
  int tcp_port = -1;
  std::vector<gaplan::dist::BackendSpec> peers;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (!v) return usage(argv[0]);
    if (arg == "--config") {
      const auto file = gaplan::serve::parse_server_config_file(v);
      if (file.parse_report.has_errors()) {
        std::fprintf(stderr, "%s", file.parse_report.text().c_str());
        return 2;
      }
      cfg = file.config;
    } else if (const char* key =
                   gaplan::serve::server_flag_key(kServerFlags, arg)) {
      if (gaplan::serve::set_server_key(cfg, key, v) !=
          gaplan::serve::KeyStatus::kSet) {
        return bad_value(arg, v);
      }
    } else if (arg == "--tcp") {
      if (!gaplan::serve::parse_tcp_port(v, tcp_port)) return bad_value(arg, v);
    } else if (arg == "--peer") {
      std::string err;
      const auto spec = gaplan::dist::parse_backend(v, &err);
      if (!spec) {
        std::fprintf(stderr, "gaplan_worker: bad --peer '%s': %s\n", v,
                     err.c_str());
        return 2;
      }
      peers.push_back(*spec);
    } else {
      return usage(argv[0]);
    }
  }
  if (tcp_port < 0) return usage(argv[0]);

  // The PlanService constructor runs the server lint gate (errors throw).
  std::unique_ptr<PlanService> service;
  try {
    service = std::make_unique<PlanService>(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gaplan_worker: bad config: %s\n", e.what());
    return 2;
  }

  std::unique_ptr<gaplan::obs::MetricsDumper> dumper;
  if (!cfg.metrics_dump_path.empty()) {
    dumper = std::make_unique<gaplan::obs::MetricsDumper>(
        cfg.metrics_dump_path, cfg.metrics_dump_ms);
  }

  gaplan::dist::GossipSender gossip(peers);
  if (!peers.empty()) {
    gossip.start();
    service->set_cache_listener(
        [&gossip](const gaplan::serve::CacheEvent& ev) {
          if (ev.kind == gaplan::serve::CacheEvent::Kind::kInsert) {
            gossip.enqueue(gaplan::dist::render_cache_put(ev.fp, ev.plan));
          } else {
            gossip.enqueue(gaplan::dist::render_cache_del(ev.fp));
          }
        });
  }

  gaplan::serve::Protocol protocol;
  gaplan::dist::add_worker_verbs(protocol, *service);
  gaplan::serve::TcpLineServer server(
      [&protocol](const std::string& line, bool& close_after) {
        return protocol.handle_line(line, close_after);
      });
  if (!server.start(tcp_port)) {
    std::fprintf(stderr, "gaplan_worker: cannot listen on 127.0.0.1:%d\n",
                 tcp_port);
    return 2;
  }
  std::printf("gaplan_worker: listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  while (!protocol.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.stop();
  gossip.stop();
  service->shutdown(protocol.drain());
  if (dumper) dumper->stop();  // final dump reflects the drained service
  return 0;
}

#endif  // GAPLAN_TCP
