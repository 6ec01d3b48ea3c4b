// gaplan_worker: one backend process of a distributed gaplan deployment.
//
// A PlanService behind a localhost TCP listener (dist/net.hpp), speaking the
// gaplan_serve NDJSON protocol plus the distribution verbs the router
// drives:
//
//   submit/poll/wait/cancel/stats/metrics/trace/shutdown   (gaplan_serve set)
//   {"cmd":"ping"}                      liveness (router heartbeat)
//   {"cmd":"cache_probe","fp":"<32hex>"}          distributed cache tier
//   {"cmd":"cache_put","fp":…,"plan":[…],…}       peer gossip / router repair
//   {"cmd":"cache_del","fp":…}                    peer eviction gossip
//   {"cmd":"ishard",…,"begin":b,"end":e}          cross-process island shard
//   {"cmd":"istep"|"icollect"|"imigrate"|"iadvance"|"ifinish"|"iabort",…}
//
// With --peer HOST:PORT (repeatable) the worker gossips its own cache
// inserts/evictions to those peers (best-effort, dist/gossip.hpp), so a plan
// computed on any worker warms every worker.
//
//   gaplan_worker --tcp 5001 --cache 64 --peer 127.0.0.1:5002
//
// --tcp 0 binds an ephemeral port; the chosen port is printed on stdout as
// "gaplan_worker: listening on 127.0.0.1:<port>" (scripts parse this line).

#include "dist/net.hpp"

#ifndef GAPLAN_DIST_NET
#include <cstdio>
int main() {
  std::fprintf(stderr, "gaplan_worker: unsupported on this platform\n");
  return 2;
}
#else

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/cache_wire.hpp"
#include "dist/dist_config.hpp"
#include "dist/gossip.hpp"
#include "dist/island_shard.hpp"
#include "dist/migration.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "server/plan_service.hpp"
#include "server/problem_spec.hpp"
#include "server/request_codec.hpp"
#include "server/server_config.hpp"
#include "server/wire.hpp"
#include "util/lock_order.hpp"
#include "util/sync.hpp"

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
    w.field("valid", st.plan_valid)
        .field("steps", static_cast<std::uint64_t>(st.plan.size()))
        .raw_field("plan", gaplan::serve::render_int_array(st.plan))
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

std::string render_trace(const RequestStatus& st) {
  JsonWriter w;
  w.field("ok", true)
      .field("id", st.id)
      .field("state", std::string_view(to_string(st.state)))
      .field("tracing", gaplan::obs::trace_enabled());
  if (st.trace_id != 0) w.field("trace", st.trace_id);
  w.field("cached", st.cached)
      .field("queue_wait_ms", st.queue_wait_ms)
      .field("cache_probe_ms", st.cache_probe_ms)
      .field("plan_ms", st.plan_ms)
      .field("total_ms", st.total_ms);
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
      .field("queue_depth", static_cast<std::uint64_t>(s.queue_depth))
      .field("planning", static_cast<std::uint64_t>(s.planning))
      .field("cache_hits", s.cache.hits)
      .field("cache_misses", s.cache.misses)
      .field("cache_evictions", s.cache.evictions)
      .field("cache_entries", static_cast<std::uint64_t>(s.cache.entries))
      .field("cache_capacity", static_cast<std::uint64_t>(s.cache.capacity));
  return w.finish();
}

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

/// The worker's island-shard table: one live ShardJob per router-chosen
/// token. Jobs run for whole migration intervals per istep, so the table
/// lock is never held across GA work — entries are checked out busy, run
/// unlocked, and checked back in (the same protocol BackendPool uses for
/// connections).
class ShardTable {
 public:
  std::string insert(const std::string& token,
                     std::unique_ptr<gaplan::dist::ShardJob> job)
      GAPLAN_EXCLUDES(mu_) {
    gaplan::util::MutexLock lock(mu_);
    if (map_.count(token)) return "shard token already in use";
    map_[token].job = std::move(job);
    return {};
  }

  /// Runs `fn(job)` with the entry checked out. Returns the response, or an
  /// error frame when the token is unknown / busy. When `erase_after`, the
  /// entry is removed on success (ifinish).
  template <typename Fn>
  std::string with(const std::string& token, bool erase_after, Fn&& fn)
      GAPLAN_EXCLUDES(mu_) {
    gaplan::dist::ShardJob* job = nullptr;
    {
      gaplan::util::MutexLock lock(mu_);
      const auto it = map_.find(token);
      if (it == map_.end()) return error_response("unknown shard token");
      if (it->second.busy) return error_response("shard busy");
      it->second.busy = true;
      job = it->second.job.get();
    }
    std::string resp;
    try {
      resp = fn(*job);
    } catch (const std::exception& e) {
      resp = error_response(e.what());
      erase_after = false;
    }
    gaplan::util::MutexLock lock(mu_);
    const auto it = map_.find(token);
    if (it != map_.end()) {
      it->second.busy = false;
      if (erase_after) map_.erase(it);
    }
    return resp;
  }

  bool erase(const std::string& token) GAPLAN_EXCLUDES(mu_) {
    gaplan::util::MutexLock lock(mu_);
    const auto it = map_.find(token);
    if (it == map_.end() || it->second.busy) return false;
    map_.erase(it);
    return true;
  }

 private:
  struct Entry {
    std::unique_ptr<gaplan::dist::ShardJob> job;
    bool busy = false;
  };
  gaplan::util::Mutex mu_{"dist.shards",
                          gaplan::util::lock_order::kRankDistShards};
  std::map<std::string, Entry> map_ GAPLAN_GUARDED_BY(mu_);
};

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

std::string handle_ishard(ShardTable& shards, const WireMessage& msg) {
  PlanRequest req;
  std::string parse_error;
  if (!gaplan::serve::parse_plan_request(msg, req, parse_error)) {
    return error_response(parse_error);
  }
  const std::string* token = msg.get_string("shard");
  if (!token) return error_response("ishard needs a 'shard' token");
  gaplan::ga::IslandConfig icfg;
  icfg.islands = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string field_error;
  if (!msg.get_integer("islands", icfg.islands, field_error) ||
      !msg.get_integer("interval", icfg.migration_interval, field_error) ||
      !msg.get_integer("migrants", icfg.migrants, field_error) ||
      !msg.get_integer("begin", begin, field_error) ||
      !msg.get_integer("end", end, field_error)) {
    return error_response(field_error);
  }
  if (icfg.islands == 0 || !msg.get_number("begin") || !msg.get_number("end")) {
    return error_response("ishard needs islands/begin/end");
  }
  if (begin >= end || end > icfg.islands) {
    return error_response("ishard range out of bounds");
  }
  // Tune exactly once, here — the router forwards the client's raw config.
  req.config = gaplan::serve::tuned_config(req.problem, req.config);
  try {
    auto job = gaplan::dist::make_shard_job(req.problem, req.config, icfg,
                                            begin, end, req.seed,
                                            /*pool=*/nullptr);
    if (req.trace != 0 && gaplan::obs::trace_enabled()) {
      job->set_span_context(
          gaplan::obs::SpanContext{req.trace, gaplan::obs::next_span_id()});
    }
    const std::string err = shards.insert(*token, std::move(job));
    if (!err.empty()) return error_response(err);
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
  JsonWriter w;
  w.field("ok", true)
      .field("shard", std::string_view(*token))
      .field("begin", static_cast<std::uint64_t>(begin))
      .field("end", static_cast<std::uint64_t>(end));
  return w.finish();
}

std::string render_outcome(const gaplan::dist::ShardOutcome& o) {
  JsonWriter w;
  w.field("ok", true)
      .field("found_valid", o.found_valid)
      .field("generation_found",
             static_cast<std::uint64_t>(o.generation_found))
      .field("generations_run",
             static_cast<std::uint64_t>(o.generations_run))
      .field("migrations", static_cast<std::uint64_t>(o.migrations))
      .field("best_island", static_cast<std::uint64_t>(o.best_island))
      .field("best_gen", static_cast<std::uint64_t>(o.best_gen))
      .field("best_valid", o.best_valid)
      .field("best_goal_fit", o.best_goal_fit)
      .field("best_fitness", o.best_fitness)
      .field("best_plan_cost", o.best_plan_cost)
      .raw_field("plan", gaplan::serve::render_int_array(o.best_ops));
  return w.finish();
}

struct WorkerState {
  PlanService* service = nullptr;
  ShardTable* shards = nullptr;
  std::atomic<bool>* stop = nullptr;
  std::atomic<bool>* drain = nullptr;
};

std::string handle_line(WorkerState& ws, const std::string& line,
                        bool& close_after) {
  WireMessage msg;
  std::string parse_error;
  if (!gaplan::serve::parse_wire_message(line, msg, parse_error)) {
    return error_response("parse: " + parse_error);
  }
  const std::string* cmd = msg.get_string("cmd");
  if (!cmd) return error_response("missing 'cmd'");
  PlanService& service = *ws.service;

  if (*cmd == "submit") return handle_submit(service, msg);

  if (*cmd == "poll" || *cmd == "wait" || *cmd == "cancel" ||
      *cmd == "trace") {
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

  if (*cmd == "ping") {
    JsonWriter w;
    w.field("ok", true).field("role", "worker");
    return w.finish();
  }

  if (*cmd == "cache_probe") {
    const auto fp = gaplan::dist::parse_fp_field(msg);
    if (!fp) return error_response("cache_probe needs a valid 'fp'");
    const auto hit = service.cache_lookup(*fp);
    JsonWriter w;
    w.field("ok", true).field("hit", hit.has_value());
    if (hit) gaplan::dist::append_cached_plan(w, *hit);
    return w.finish();
  }
  if (*cmd == "cache_put") {
    const auto fp = gaplan::dist::parse_fp_field(msg);
    if (!fp) return error_response("cache_put needs a valid 'fp'");
    gaplan::serve::CachedPlan plan;
    std::string err;
    if (!gaplan::dist::parse_cached_plan(msg, plan, err)) {
      return error_response("cache_put: " + err);
    }
    service.cache_insert(*fp, std::move(plan));
    JsonWriter w;
    w.field("ok", true);
    return w.finish();
  }
  if (*cmd == "cache_del") {
    const auto fp = gaplan::dist::parse_fp_field(msg);
    if (!fp) return error_response("cache_del needs a valid 'fp'");
    const bool removed = service.cache_remove(*fp);
    JsonWriter w;
    w.field("ok", true).field("removed", removed);
    return w.finish();
  }

  if (*cmd == "ishard") return handle_ishard(*ws.shards, msg);
  if (*cmd == "istep" || *cmd == "icollect" || *cmd == "imigrate" ||
      *cmd == "iadvance" || *cmd == "ifinish" || *cmd == "iabort") {
    const std::string* token = msg.get_string("shard");
    if (!token) return error_response(*cmd + " needs a 'shard' token");
    if (*cmd == "iabort") {
      const bool erased = ws.shards->erase(*token);
      JsonWriter w;
      w.field("ok", true).field("erased", erased);
      return w.finish();
    }
    if (*cmd == "istep") {
      return ws.shards->with(*token, false, [](gaplan::dist::ShardJob& job) {
        const bool boundary = job.run_interval();
        JsonWriter w;
        w.field("ok", true)
            .field("boundary", boundary)
            .field("found_valid", job.found_valid());
        return w.finish();
      });
    }
    if (*cmd == "icollect") {
      std::size_t island = 0;
      std::string field_error;
      if (!msg.get_number("island")) {
        return error_response("icollect needs an 'island'");
      }
      if (!msg.get_integer("island", island, field_error)) {
        return error_response(field_error);
      }
      return ws.shards->with(
          *token, false, [&](gaplan::dist::ShardJob& job) {
            const auto batch = job.collect(island);
            JsonWriter w;
            w.field("ok", true)
                .field("frame", std::string_view(
                                    gaplan::dist::encode_migrants(batch)));
            return w.finish();
          });
    }
    if (*cmd == "imigrate") {
      std::size_t island = 0;
      std::string field_error;
      const std::string* frame = msg.get_string("frame");
      if (!msg.get_number("island") || !frame) {
        return error_response("imigrate needs 'island' and 'frame'");
      }
      if (!msg.get_integer("island", island, field_error)) {
        return error_response(field_error);
      }
      return ws.shards->with(
          *token, false, [&](gaplan::dist::ShardJob& job) {
            std::string err;
            const auto batch = gaplan::dist::parse_migrants(*frame, &err);
            if (!batch) return error_response("bad frame: " + err);
            job.inject(island, *batch);
            JsonWriter w;
            w.field("ok", true);
            return w.finish();
          });
    }
    if (*cmd == "iadvance") {
      return ws.shards->with(*token, false, [](gaplan::dist::ShardJob& job) {
        job.advance();
        JsonWriter w;
        w.field("ok", true);
        return w.finish();
      });
    }
    // ifinish
    return ws.shards->with(*token, true, [](gaplan::dist::ShardJob& job) {
      return render_outcome(job.finish());
    });
  }

  if (*cmd == "shutdown") {
    ws.drain->store(msg.get_bool("drain").value_or(true));
    ws.stop->store(true);
    close_after = true;
    JsonWriter w;
    w.field("ok", true).field("state", "shutting-down");
    return w.finish();
  }

  return error_response("unknown cmd '" + *cmd + "'");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --tcp PORT [--config FILE] [--workers N] "
               "[--queue N] [--cache N] [--cache-shards N] "
               "[--peer HOST:PORT]...\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig cfg;
  int tcp_port = -1;
  std::vector<gaplan::dist::BackendSpec> peers;
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
    } else if (arg == "--cache-shards") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.cache_shards = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--tcp") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      tcp_port = std::atoi(v);
    } else if (arg == "--peer") {
      const char* v = next();
      if (!v) return usage(argv[0]);
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

  ShardTable shards;
  std::atomic<bool> stop{false};
  std::atomic<bool> drain{true};
  WorkerState ws;
  ws.service = service.get();
  ws.shards = &shards;
  ws.stop = &stop;
  ws.drain = &drain;

  gaplan::dist::TcpLineServer server(
      [&ws](const std::string& line, bool& close_after) {
        return handle_line(ws, line, close_after);
      });
  if (!server.start(tcp_port)) {
    std::fprintf(stderr, "gaplan_worker: cannot listen on 127.0.0.1:%d\n",
                 tcp_port);
    return 2;
  }
  std::printf("gaplan_worker: listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  while (!stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.stop();
  gossip.stop();
  service->shutdown(drain.load());
  return 0;
}

#endif  // GAPLAN_DIST_NET
