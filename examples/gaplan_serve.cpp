// gaplan_serve: the planning service front end.
//
// Speaks newline-delimited JSON (one request object in, one response object
// out, per line) over stdin/stdout — and optionally over a localhost TCP
// port (--tcp PORT), one thread per connection, same protocol. Backed by
// serve::PlanService: bounded priority queue, sharded plan cache, lint-gated
// admission, worker scheduling on a thread pool.
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
// EOF on stdin drains and exits like {"cmd":"shutdown"}. Run
//   printf '%s\n' '{"cmd":"submit","problem":"hanoi:3"}' '{"cmd":"wait","id":1}' | gaplan_serve
// for a one-shot session.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "server/plan_service.hpp"
#include "server/request_codec.hpp"
#include "server/server_config.hpp"
#include "server/wire.hpp"
#include "util/sync.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define GAPLAN_SERVE_TCP 1
#endif

namespace {

using gaplan::serve::JsonWriter;
using gaplan::serve::PlanRequest;
using gaplan::serve::PlanService;
using gaplan::serve::RequestState;
using gaplan::serve::RequestStatus;
using gaplan::serve::ServerConfig;
using gaplan::serve::WireMessage;

std::string error_response(const std::string& message) {
  JsonWriter w;
  w.field("ok", false).field("error", std::string_view(message));
  return w.finish();
}

std::string render_status(const RequestStatus& st) {
  JsonWriter w;
  w.field("ok", true)
      .field("id", st.id)
      .field("state", std::string_view(to_string(st.state)))
      .field("cached", st.cached);
  if (st.state == RequestState::kDone) {
    std::string plan = "[";
    for (std::size_t i = 0; i < st.plan.size(); ++i) {
      if (i) plan += ',';
      plan += std::to_string(st.plan[i]);
    }
    plan += ']';
    w.field("valid", st.plan_valid)
        .field("steps", static_cast<std::uint64_t>(st.plan.size()))
        .raw_field("plan", plan)
        .field("plan_cost", st.plan_cost)
        .field("goal_fitness", st.goal_fitness)
        .field("phases", static_cast<std::uint64_t>(st.phases_run))
        .field("generations", static_cast<std::uint64_t>(st.generations_total));
  }
  if (!st.detail.empty()) w.field("detail", std::string_view(st.detail));
  w.field("yields", static_cast<std::uint64_t>(st.yields))
      .field("slices", static_cast<std::uint64_t>(st.slices))
      .field("queue_ms", st.queue_ms)
      .field("queue_wait_ms", st.queue_wait_ms)
      .field("cache_probe_ms", st.cache_probe_ms)
      .field("plan_ms", st.plan_ms)
      .field("total_ms", st.total_ms);
  if (st.trace_id != 0) w.field("trace", st.trace_id);
  return w.finish();
}

/// Per-request span summary: where the request's wall-clock went, plus the
/// trace id to grep for in the GAPLAN_TRACE journal (analyze_trace.py keys
/// on it). Unlike poll, carries no plan payload — it is pure telemetry.
std::string render_trace(const RequestStatus& st) {
  JsonWriter w;
  w.field("ok", true)
      .field("id", st.id)
      .field("state", std::string_view(to_string(st.state)))
      .field("tracing", gaplan::obs::trace_enabled());
  if (st.trace_id != 0) w.field("trace", st.trace_id);
  w.field("cached", st.cached)
      .field("yields", static_cast<std::uint64_t>(st.yields))
      .field("slices", static_cast<std::uint64_t>(st.slices))
      .field("queue_ms", st.queue_ms)
      .field("queue_wait_ms", st.queue_wait_ms)
      .field("cache_probe_ms", st.cache_probe_ms)
      .field("plan_ms", st.plan_ms)
      .field("total_ms", st.total_ms);
  // The unattributed remainder: lock waits, scheduling gaps, wire overhead.
  const double other = st.total_ms - st.queue_wait_ms - st.plan_ms -
                       st.cache_probe_ms;
  w.field("other_ms", other > 0.0 ? other : 0.0);
  return w.finish();
}

std::string handle_submit(PlanService& service, const WireMessage& msg) {
  PlanRequest req;
  std::string parse_error;
  if (!gaplan::serve::parse_plan_request(msg, req, parse_error)) {
    return error_response(parse_error);
  }

  const auto outcome = service.submit(std::move(req));
  JsonWriter w;
  w.field("ok", outcome.accepted)
      .field("id", outcome.id)
      .field("state", std::string_view(to_string(outcome.state)));
  if (!outcome.accepted) {
    w.field("error", std::string_view(outcome.reason));
    if (!outcome.diagnostics.empty()) {
      w.field("diagnostic", outcome.diagnostics.first_error());
    }
  }
  return w.finish();
}

std::string render_stats(const PlanService& service) {
  const auto s = service.snapshot();
  JsonWriter w;
  w.field("ok", true)
      .field("submitted", s.submitted)
      .field("admitted", s.admitted)
      .field("rejected", s.rejected)
      .field("completed", s.completed)
      .field("failed", s.failed)
      .field("timed_out", s.timed_out)
      .field("cancelled", s.cancelled)
      .field("yields", s.yields)
      .field("queue_depth", static_cast<std::uint64_t>(s.queue_depth))
      .field("planning", static_cast<std::uint64_t>(s.planning))
      .field("cache_hits", s.cache.hits)
      .field("cache_misses", s.cache.misses)
      .field("cache_evictions", s.cache.evictions)
      .field("cache_entries", static_cast<std::uint64_t>(s.cache.entries))
      .field("cache_capacity", static_cast<std::uint64_t>(s.cache.capacity));
  const auto hist_fields = [&w](const char* prefix,
                                const gaplan::obs::HistogramSample& h) {
    const std::string p = prefix;
    w.field(std::string_view(p + "_count"), h.count)
        .field(std::string_view(p + "_mean_ms"), h.mean())
        .field(std::string_view(p + "_p50_ms"), h.percentile(0.5))
        .field(std::string_view(p + "_p95_ms"), h.p95());
  };
  hist_fields("queue_wait", s.queue_wait_ms);
  hist_fields("slice", s.slice_ms);
  hist_fields("cache_probe", s.cache_probe_ms);
  return w.finish();
}

/// The `metrics` verb: the whole registry. Default format is the JSON
/// document (spliced in as a nested object — the one place the wire carries
/// nesting on the way out); "prometheus" returns the text exposition as a
/// string field, ready to paste into a scrape endpoint.
std::string render_metrics(const WireMessage& msg) {
  const std::string* format = msg.get_string("format");
  JsonWriter w;
  w.field("ok", true);
  if (format && *format == "prometheus") {
    w.field("format", "prometheus")
        .field("text", std::string_view(gaplan::obs::render_metrics_prometheus(
                           gaplan::obs::snapshot_metrics())));
  } else if (!format || *format == "json") {
    w.field("format", "json")
        .raw_field("metrics", gaplan::obs::render_metrics_json(
                                  gaplan::obs::snapshot_metrics()));
  } else {
    return error_response("unknown metrics format '" + *format +
                          "' (json|prometheus)");
  }
  return w.finish();
}

/// Handles one protocol line. Sets `want_exit` / `drain_on_exit` on a
/// shutdown command; the caller stops reading and quiesces the service.
std::string handle_line(PlanService& service, const std::string& line,
                        bool& want_exit, bool& drain_on_exit) {
  WireMessage msg;
  std::string parse_error;
  if (!parse_wire_message(line, msg, parse_error)) {
    return error_response("parse: " + parse_error);
  }
  const std::string* cmd = msg.get_string("cmd");
  if (!cmd) return error_response("missing 'cmd'");

  if (*cmd == "submit") return handle_submit(service, msg);

  if (*cmd == "poll" || *cmd == "wait" || *cmd == "cancel" || *cmd == "trace") {
    std::uint64_t id = 0;
    std::string id_error;
    if (!msg.get_integer("id", id, id_error, 1)) return error_response(id_error);
    if (id == 0) return error_response(*cmd + " needs an 'id'");
    if (*cmd == "cancel") {
      const bool cancelled = service.cancel(id);
      JsonWriter w;
      w.field("ok", true).field("id", id).field("cancelled", cancelled);
      return w.finish();
    }
    std::optional<RequestStatus> st;
    if (*cmd == "poll" || *cmd == "trace") {
      st = service.status(id);
    } else {
      st = service.wait(id, msg.get_number("timeout_ms").value_or(-1.0));
    }
    if (!st) return error_response("unknown id " + std::to_string(id));
    return *cmd == "trace" ? render_trace(*st) : render_status(*st);
  }

  if (*cmd == "stats") return render_stats(service);
  if (*cmd == "metrics") return render_metrics(msg);

  if (*cmd == "shutdown") {
    want_exit = true;
    drain_on_exit = msg.get_bool("drain").value_or(true);
    JsonWriter w;
    w.field("ok", true).field("state", "shutting-down")
        .field("drain", drain_on_exit);
    return w.finish();
  }

  return error_response(
      "unknown cmd '" + *cmd +
      "' (submit|poll|wait|cancel|stats|metrics|trace|shutdown)");
}

#ifdef GAPLAN_SERVE_TCP

/// Localhost TCP listener: same NDJSON protocol, one thread per connection.
/// A shutdown command from any client stops the listener and the stdin loop.
class TcpFrontEnd {
 public:
  TcpFrontEnd(PlanService& service, std::atomic<bool>& stop,
              std::atomic<bool>& drain)
      : service_(service), stop_(stop), drain_(drain) {}

  bool start(int port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(listen_fd_, 16) < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
    return true;
  }

  void stop() {
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      // Unblock client threads parked in read(); they close their own fd.
      gaplan::util::MutexLock lock(clients_mu_);
      for (const int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& t : client_threads_) {
      if (t.joinable()) t.join();
    }
  }

  ~TcpFrontEnd() { stop(); }

 private:
  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;  // listener closed (shutdown) or hard error
      {
        gaplan::util::MutexLock lock(clients_mu_);
        client_fds_.push_back(fd);
      }
      client_threads_.emplace_back([this, fd] { serve_client(fd); });
    }
  }

  void serve_client(int fd) {
    std::string buf;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos = 0, nl = 0;
      bool exit_connection = false;
      while ((nl = buf.find('\n', pos)) != std::string::npos) {
        const std::string line = buf.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.empty()) continue;
        bool want_exit = false, drain_on_exit = true;
        std::string resp =
            handle_line(service_, line, want_exit, drain_on_exit);
        resp += '\n';
        if (::write(fd, resp.data(), resp.size()) < 0) exit_connection = true;
        if (want_exit) {
          drain_.store(drain_on_exit);
          stop_.store(true);
          exit_connection = true;
        }
      }
      buf.erase(0, pos);
      if (buf.size() > gaplan::serve::kMaxWireFrameBytes) {
        // An unterminated line past the frame cap can only produce a protocol
        // error; answer once and drop the client instead of buffering it.
        std::string resp = error_response("frame exceeds size limit");
        resp += '\n';
        (void)::write(fd, resp.data(), resp.size());
        break;
      }
      if (exit_connection) break;
    }
    {
      gaplan::util::MutexLock lock(clients_mu_);
      std::erase(client_fds_, fd);
    }
    ::close(fd);
  }

  PlanService& service_;
  std::atomic<bool>& stop_;
  std::atomic<bool>& drain_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> client_threads_;
  gaplan::util::Mutex clients_mu_{"serve.clients",
                                  gaplan::util::lock_order::kRankServeClients};
  std::vector<int> client_fds_ GAPLAN_GUARDED_BY(clients_mu_);
};

#endif  // GAPLAN_SERVE_TCP

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config FILE.serve] [--workers N] [--queue N]\n"
               "          [--cache N] [--tcp PORT]\n"
               "          [--metrics-dump FILE] [--metrics-dump-ms MS]\n"
               "Speaks NDJSON on stdin/stdout; see docs/API.md.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig cfg;
  int tcp_port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* path = next();
      if (!path) return usage(argv[0]);
      const auto file = gaplan::serve::parse_server_config_file(path);
      if (file.parse_report.has_errors()) {
        std::fprintf(stderr, "%s", file.parse_report.text().c_str());
        return 2;
      }
      cfg = file.config;
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.workers = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--queue") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.queue_capacity = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--cache") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.cache_capacity = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--tcp") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      tcp_port = std::atoi(v);
    } else if (arg == "--metrics-dump") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.metrics_dump_path = v;
    } else if (arg == "--metrics-dump-ms") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.metrics_dump_ms = std::atof(v);
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

  std::atomic<bool> stop{false};
  std::atomic<bool> drain{true};

#ifdef GAPLAN_SERVE_TCP
  std::unique_ptr<TcpFrontEnd> tcp;
  if (tcp_port > 0) {
    tcp = std::make_unique<TcpFrontEnd>(*service, stop, drain);
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
  while (!stop.load() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    bool want_exit = false, drain_on_exit = true;
    const std::string resp = handle_line(*service, line, want_exit, drain_on_exit);
    std::fwrite(resp.data(), 1, resp.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
    if (want_exit) {
      drain.store(drain_on_exit);
      stop.store(true);
    }
  }

#ifdef GAPLAN_SERVE_TCP
  // stdin EOF with a live TCP listener: keep serving until a client sends
  // {"cmd":"shutdown"}.
  while (tcp && !stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (tcp) tcp->stop();
#endif
  service->shutdown(drain.load());
  if (dumper) dumper->stop();  // final dump reflects the drained service
  return 0;
}
