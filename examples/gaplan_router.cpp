// gaplan_router: the client-facing front door of a distributed deployment.
//
// Consistent-hashes submits onto gaplan_worker backends, probes the
// distributed plan-cache tier before dispatching, transparently retries
// idempotent requests when a worker dies, and coordinates cross-process
// island runs (dist/router.hpp has the full design).
//
//   gaplan_router --backend 127.0.0.1:5001 --backend 127.0.0.1:5002:2.0
//                 --tcp 7000      (one command line)
//   gaplan_router --config cluster.dist --tcp 7000
//
// The .dist config (and any --backend flags) pass the dist lint gate
// (src/analysis/dist_lint.hpp) before the router starts: errors print and
// exit 2, warnings print and continue. --tcp 0 binds an ephemeral port,
// printed as "gaplan_router: listening on 127.0.0.1:<port>".

#include "server/line_server.hpp"

#ifndef GAPLAN_TCP
#include <cstdio>
int main() {
  std::fprintf(stderr, "gaplan_router: unsupported on this platform\n");
  return 2;
}
#else

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "analysis/dist_lint.hpp"
#include "dist/dist_config.hpp"
#include "dist/router.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config FILE.dist] [--backend HOST:PORT[:WEIGHT]]"
               "... --tcp PORT\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gaplan::dist::RouterConfig cfg;
  int tcp_port = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* path = next();
      if (!path) return usage(argv[0]);
      const auto file = gaplan::dist::parse_router_config_file(path);
      if (file.parse_report.has_errors()) {
        std::fprintf(stderr, "%s", file.parse_report.text().c_str());
        return 2;
      }
      cfg = file.config;
    } else if (arg == "--backend") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      std::string err;
      const auto spec = gaplan::dist::parse_backend(v, &err);
      if (!spec) {
        std::fprintf(stderr, "gaplan_router: bad --backend '%s': %s\n", v,
                     err.c_str());
        return 2;
      }
      cfg.backends.push_back(*spec);
    } else if (arg == "--tcp") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (!gaplan::serve::parse_tcp_port(v, tcp_port)) {
        std::fprintf(stderr, "gaplan_router: bad value '%s' for --tcp\n", v);
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (tcp_port < 0) return usage(argv[0]);

  // Lint gate: semantic errors (no backends, duplicate ids, non-positive
  // weights, bad intervals) stop the router before it takes traffic.
  {
    const auto report = gaplan::dist::lint_router_config(cfg);
    if (!report.empty()) std::fprintf(stderr, "%s", report.text().c_str());
    if (report.has_errors()) return 2;
  }

  gaplan::dist::RouterService router(cfg);
  router.start();

  gaplan::serve::TcpLineServer server(
      [&router](const std::string& line, bool& close_after) {
        return router.handle_line(line, close_after);
      });
  if (!server.start(tcp_port)) {
    std::fprintf(stderr, "gaplan_router: cannot listen on 127.0.0.1:%d\n",
                 tcp_port);
    return 2;
  }
  std::printf("gaplan_router: listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  while (!router.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.stop();
  router.stop();
  return 0;
}

#endif  // GAPLAN_TCP
