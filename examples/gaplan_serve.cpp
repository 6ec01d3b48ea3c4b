// gaplan_serve: the planning service front end.
//
// Speaks newline-delimited JSON (one request object in, one response object
// out, per line) over stdin/stdout — and optionally over a localhost TCP
// port (--tcp PORT) through the shared line server, same protocol
// (server/protocol.hpp). Backed by serve::PlanService: bounded priority
// queue, sharded plan cache, lint-gated admission, worker scheduling on a
// thread pool.
//
// Commands (docs/API.md "Planning service" has the full schema):
//
//   {"cmd":"submit","problem":"hanoi:4","gens":60,"seed":3,"priority":1}
//     -> {"ok":true,"id":1,"state":"queued"}   (or "done" on a cache hit)
//   {"cmd":"wait","id":1,"timeout_ms":5000}
//     -> {"ok":true,"id":1,"state":"done","valid":true,"plan":[...],...}
//   {"cmd":"poll","id":1}        non-blocking status
//   {"cmd":"cancel","id":1}      cancel queued / stop planning
//   {"cmd":"stats"}              service + cache snapshot + latency histograms
//   {"cmd":"metrics"}            full metrics registry as JSON
//   {"cmd":"metrics","format":"prometheus"}   text exposition (scrape-ready)
//   {"cmd":"trace","id":1}       per-request span summary (trace id, timing)
//   {"cmd":"shutdown"}           drain and exit ({"drain":false} aborts work)
//
// With --metrics-dump FILE (or metrics-dump-path in the config file, or the
// GAPLAN_METRICS_DUMP env var) a background thread rewrites FILE with the
// Prometheus exposition every --metrics-dump-ms milliseconds — the live
// telemetry plane: `watch cat FILE` or point a file-based scraper at it.
//
// EOF on stdin drains and exits like {"cmd":"shutdown"}; with --tcp the
// socket keeps serving until a client sends the shutdown verb. Run
//   printf '%s\n' '{"cmd":"submit","problem":"hanoi:3"}' '{"cmd":"wait","id":1}' | gaplan_serve
// for a one-shot session.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "obs/report.hpp"
#include "server/line_server.hpp"
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
    {"--metrics-dump", "metrics-dump-path"},
    {"--metrics-dump-ms", "metrics-dump-ms"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config FILE.serve] [--workers N] [--queue N]\n"
               "          [--cache N] [--tcp PORT]\n"
               "          [--metrics-dump FILE] [--metrics-dump-ms MS]\n"
               "Speaks NDJSON on stdin/stdout; see docs/API.md.\n",
               argv0);
  return 2;
}

int bad_value(const std::string& flag, const char* value) {
  std::fprintf(stderr, "gaplan_serve: bad value '%s' for %s\n", value,
               flag.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig cfg;
  int tcp_port = 0;
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
    } else {
      return usage(argv[0]);
    }
  }
  if (const char* env = std::getenv("GAPLAN_METRICS_DUMP");
      env != nullptr && *env != '\0') {
    cfg.metrics_dump_path = env;
  }

  std::unique_ptr<PlanService> service;
  try {
    service = std::make_unique<PlanService>(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gaplan_serve: bad config: %s\n", e.what());
    return 2;
  }

  std::unique_ptr<gaplan::obs::MetricsDumper> dumper;
  if (!cfg.metrics_dump_path.empty()) {
    dumper = std::make_unique<gaplan::obs::MetricsDumper>(
        cfg.metrics_dump_path, cfg.metrics_dump_ms);
    std::fprintf(stderr, "gaplan_serve: metrics -> %s every %.0fms\n",
                 cfg.metrics_dump_path.c_str(), cfg.metrics_dump_ms);
  }

  gaplan::serve::Protocol protocol(*service);

#ifdef GAPLAN_TCP
  std::unique_ptr<gaplan::serve::TcpLineServer> tcp;
  if (tcp_port > 0) {
    tcp = std::make_unique<gaplan::serve::TcpLineServer>(
        [&protocol](const std::string& line, bool& close_after) {
          return protocol.handle_line(line, close_after);
        });
    if (!tcp->start(tcp_port)) {
      std::fprintf(stderr, "gaplan_serve: cannot listen on 127.0.0.1:%d\n",
                   tcp_port);
      return 2;
    }
    std::fprintf(stderr, "gaplan_serve: listening on 127.0.0.1:%d\n", tcp_port);
  }
#else
  if (tcp_port > 0) {
    std::fprintf(stderr, "gaplan_serve: --tcp unsupported on this platform\n");
    return 2;
  }
#endif

  std::string line;
  while (!protocol.shutdown_requested() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    bool close_after = false;
    const std::string resp = protocol.handle_line(line, close_after);
    std::fwrite(resp.data(), 1, resp.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

#ifdef GAPLAN_TCP
  // stdin EOF with a live TCP listener: keep serving until a client sends
  // {"cmd":"shutdown"}.
  while (tcp && !protocol.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (tcp) tcp->stop();
#endif
  service->shutdown(protocol.drain());
  if (dumper) dumper->stop();  // final dump reflects the drained service
  return 0;
}
