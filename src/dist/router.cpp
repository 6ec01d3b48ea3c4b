#include "dist/router.hpp"

#ifdef GAPLAN_TCP

#include <memory>
#include <stdexcept>
#include <utility>

#include "dist/cache_wire.hpp"
#include "dist/island_shard.hpp"
#include "dist/worker_verbs.hpp"
#include "obs/metrics.hpp"
#include "server/protocol.hpp"
#include "server/request_codec.hpp"

namespace gaplan::dist {

namespace {

using serve::error_response;
using serve::JsonWriter;
using serve::WireMessage;

std::uint64_t ring_key(const serve::Fingerprint& fp) {
  return fp.hi ^ fp.lo;
}

/// The local-cache-hit answer, shaped like a worker's done status so clients
/// cannot tell which tier answered.
std::string render_cached_status(std::uint64_t id,
                                 const serve::CachedPlan& plan) {
  JsonWriter w;
  w.field("ok", true).field("id", id).field("state", "done").field("cached",
                                                                   true);
  append_cached_plan(w, plan);
  return w.finish();
}

/// One RPC to a worker that must answer "ok". Throws std::runtime_error on
/// a transport failure or an error answer: the island run then restarts on
/// the workers still up.
WireMessage call_worker(BackendPool& pool, const std::string& backend,
                        const std::string& line) {
  WireMessage resp;
  std::string err;
  if (!pool.rpc(backend, line, resp, err)) {
    throw std::runtime_error("rpc to " + backend + " failed: " + err);
  }
  if (!resp.get_bool("ok").value_or(false)) {
    const std::string* what = resp.get_string("error");
    throw std::runtime_error("worker " + backend + " error: " +
                             (what ? *what : "unknown"));
  }
  return resp;
}

}  // namespace

RouterService::RouterService(RouterConfig cfg)
    : cfg_(std::move(cfg)), pool_(cfg_) {
  protocol_.add_verb("submit", [this](const WireMessage& msg, bool&) {
    return route_submit(msg);
  });
  for (const char* cmd : {"wait", "poll", "cancel", "trace"}) {
    protocol_.add_verb(cmd, [this](const WireMessage& msg, bool&) {
      return handle_forward(msg);
    });
  }
  protocol_.add_verb("stats", [this](const WireMessage&, bool&) {
    return render_router_stats();
  });
  protocol_.add_verb("backends", [this](const WireMessage&, bool&) {
    return render_backends();
  });
  protocol_.add_verb("route", [this](const WireMessage& msg, bool&) {
    return handle_route(msg);
  });
  protocol_.add_verb("ping", [](const WireMessage&, bool&) {
    JsonWriter w;
    w.field("ok", true).field("role", "router");
    return w.finish();
  });
}

RouterService::~RouterService() { stop(); }

void RouterService::start() { pool_.start(); }

void RouterService::stop() { pool_.stop(); }

RouterService::Stats RouterService::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

bool RouterService::probe_cache(const serve::Fingerprint& fp,
                                const std::vector<std::string>& chain,
                                serve::CachedPlan& plan) {
  static obs::Counter& c_hit_primary = obs::counter("dist.cache_hit_primary");
  static obs::Counter& c_hit_fanout = obs::counter("dist.cache_hit_fanout");
  const std::string probe = render_cache_probe(fp);
  const std::size_t fanout = cfg_.probe_all_on_miss ? chain.size() : 1;
  for (std::size_t i = 0; i < fanout && i < chain.size(); ++i) {
    WireMessage resp;
    std::string err;
    if (!pool_.rpc(chain[i], probe, resp, err)) continue;
    if (!resp.get_bool("hit").value_or(false)) continue;
    std::string perr;
    if (!parse_cached_plan(resp, plan, perr)) continue;
    if (i == 0) {
      c_hit_primary.inc();
      util::MutexLock lock(mu_);
      ++stats_.cache_hits_primary;
    } else {
      // Fanout hit: the plan lives on the wrong worker (ring drift from a
      // past outage, or gossip landed there first). Repair it onto the
      // primary so the next probe stops at hop 0.
      c_hit_fanout.inc();
      WireMessage put_resp;
      std::string put_err;
      const bool repaired =
          pool_.rpc(chain[0], render_cache_put(fp, plan), put_resp, put_err);
      util::MutexLock lock(mu_);
      ++stats_.cache_hits_fanout;
      if (repaired) ++stats_.repairs;
    }
    return true;
  }
  return false;
}

std::string RouterService::route_submit(const WireMessage& msg) {
  static obs::Counter& c_submitted = obs::counter("dist.submitted");
  static obs::Counter& c_dispatched = obs::counter("dist.dispatched");
  c_submitted.inc();
  {
    util::MutexLock lock(mu_);
    ++stats_.submitted;
  }

  serve::PlanRequest req;
  std::string parse_error;
  if (!serve::parse_plan_request(msg, req, parse_error)) {
    return error_response(parse_error);
  }
  if (msg.get_number("islands")) return handle_island(std::move(req), msg);

  const serve::Fingerprint fp = serve::PlanService::fingerprint(req);
  const std::uint64_t key = ring_key(fp);
  const std::vector<std::string> chain =
      pool_.route(key, cfg_.backends.size());
  if (chain.empty()) return error_response("no-backends-up");

  serve::CachedPlan cached;
  if (probe_cache(fp, chain, cached)) {
    util::MutexLock lock(mu_);
    const std::uint64_t id = next_id_++;
    Request r;
    r.fp = fp;
    r.key = key;
    r.local = true;
    r.local_plan = cached;
    const std::string resp = render_cached_status(id, r.local_plan);
    requests_.emplace(id, std::move(r));
    return resp;
  }

  // Dispatch: the router's trace context rides along so the worker's span
  // tree joins this request's trace (plan_service.hpp on remote_parent).
  const obs::SpanContext ctx = obs::new_trace_context();
  req.trace = ctx.trace;
  req.parent_span = ctx.span;
  const std::string line = serve::render_submit_line(req);

  std::string last_error = "no-backends-up";
  for (const std::string& backend : chain) {
    WireMessage resp;
    if (!pool_.rpc(backend, line, resp, last_error)) continue;
    if (!resp.get_bool("ok").value_or(false)) {
      // The worker rejected (lint, queue-full, shedding): relay its verdict
      // untouched — a retry elsewhere would hit the same lint gate, and
      // spilling shed load to another worker would defeat shedding.
      return serve::render_wire_message(resp);
    }
    std::uint64_t remote = 0;
    std::string id_error;
    if (!resp.get_number("id")) {
      return error_response("backend response missing id");
    }
    if (!resp.get_integer("id", remote, id_error)) {
      return error_response("backend response: " + id_error);
    }
    c_dispatched.inc();
    util::MutexLock lock(mu_);
    ++stats_.dispatched;
    const std::uint64_t id = next_id_++;
    Request r;
    r.backend = backend;
    r.remote_id = remote;
    r.submit_line = line;
    r.fp = fp;
    r.key = key;
    requests_.emplace(id, std::move(r));
    return serve::render_wire_message(resp,
                                      static_cast<std::int64_t>(id));
  }
  return error_response("dispatch failed: " + last_error);
}

bool RouterService::resubmit(std::uint64_t id, std::string& error) {
  static obs::Counter& c_retries = obs::counter("dist.retries");
  std::string line;
  std::uint64_t key = 0;
  {
    util::MutexLock lock(mu_);
    const auto it = requests_.find(id);
    if (it == requests_.end()) {
      error = "unknown id";
      return false;
    }
    if (it->second.retries >= cfg_.retry_limit) {
      error = "retry limit exhausted";
      return false;
    }
    line = it->second.submit_line;
    key = it->second.key;
  }
  const std::vector<std::string> chain =
      pool_.route(key, cfg_.backends.size());
  for (const std::string& backend : chain) {
    WireMessage resp;
    std::string rpc_error;
    if (!pool_.rpc(backend, line, resp, rpc_error)) continue;
    if (!resp.get_bool("ok").value_or(false)) {
      error = "backend rejected replay";
      return false;
    }
    std::uint64_t remote = 0;
    if (!resp.get_number("id") || !resp.get_integer("id", remote, rpc_error)) {
      continue;
    }
    c_retries.inc();
    util::MutexLock lock(mu_);
    ++stats_.retries;
    const auto it = requests_.find(id);
    if (it == requests_.end()) {
      error = "unknown id";
      return false;
    }
    it->second.backend = backend;
    it->second.remote_id = remote;
    ++it->second.retries;
    return true;
  }
  error = "no backend up for replay";
  return false;
}

std::string RouterService::handle_forward(const WireMessage& msg) {
  if (!msg.get_number("id")) return error_response("missing 'id'");
  std::uint64_t id = 0;
  std::string id_error;
  if (!msg.get_integer("id", id, id_error)) return error_response(id_error);
  const std::string* cmd = msg.get_string("cmd");

  for (;;) {
    std::string backend;
    std::uint64_t remote = 0;
    {
      util::MutexLock lock(mu_);
      const auto it = requests_.find(id);
      if (it == requests_.end()) {
        return error_response("unknown id " + std::to_string(id));
      }
      if (it->second.local) {
        if (cmd && *cmd == "cancel") {
          JsonWriter w;
          w.field("ok", false).field("id", id).field("error", "terminal");
          return w.finish();
        }
        return render_cached_status(id, it->second.local_plan);
      }
      backend = it->second.backend;
      remote = it->second.remote_id;
    }
    const std::string line = serve::render_wire_message(
        msg, static_cast<std::int64_t>(remote));
    WireMessage resp;
    std::string rpc_error;
    if (pool_.rpc(backend, line, resp, rpc_error)) {
      return serve::render_wire_message(resp, static_cast<std::int64_t>(id));
    }
    // The owner died mid-request. Submits are idempotent, so replay the
    // stored line on the chain's next survivor and re-forward.
    std::string retry_error;
    if (!resubmit(id, retry_error)) {
      return error_response("backend lost (" + rpc_error +
                            "); retry failed: " + retry_error);
    }
  }
}

std::string RouterService::handle_route(const WireMessage& msg) {
  serve::Fingerprint fp;
  if (const auto parsed = parse_fp_field(msg)) {
    fp = *parsed;
  } else {
    serve::PlanRequest req;
    std::string parse_error;
    if (!serve::parse_plan_request(msg, req, parse_error)) {
      return error_response(parse_error);
    }
    fp = serve::PlanService::fingerprint(req);
  }
  const std::vector<std::string> chain =
      pool_.route(ring_key(fp), cfg_.backends.size());
  JsonWriter w;
  w.field("ok", true).field("fp", std::string_view(fp.hex()));
  if (chain.empty()) {
    w.field("primary", "");
  } else {
    w.field("primary", std::string_view(chain.front()));
  }
  std::string joined;
  for (const std::string& b : chain) {
    if (!joined.empty()) joined += ',';
    joined += b;
  }
  w.field("chain", std::string_view(joined));
  return w.finish();
}

std::string RouterService::render_router_stats() const {
  Stats s;
  {
    util::MutexLock lock(mu_);
    s = stats_;
  }
  std::size_t up = 0;
  const auto states = pool_.snapshot();
  for (const auto& b : states) up += b.up ? 1 : 0;
  JsonWriter w;
  w.field("ok", true)
      .field("submitted", s.submitted)
      .field("dispatched", s.dispatched)
      .field("cache_hits_primary", s.cache_hits_primary)
      .field("cache_hits_fanout", s.cache_hits_fanout)
      .field("repairs", s.repairs)
      .field("retries", s.retries)
      .field("island_runs", s.island_runs)
      .field("island_restarts", s.island_restarts)
      .field("backends", static_cast<std::uint64_t>(states.size()))
      .field("backends_up", static_cast<std::uint64_t>(up));
  return w.finish();
}

std::string RouterService::render_backends() const {
  const auto states = pool_.snapshot();
  JsonWriter w;
  w.field("ok", true).field("count",
                            static_cast<std::uint64_t>(states.size()));
  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto& b = states[i];
    std::string line = b.id;
    line += b.up ? " up" : " down";
    line += " weight=";
    line += std::to_string(b.weight);
    line += " rpcs=";
    line += std::to_string(b.rpcs);
    line += " failures=";
    line += std::to_string(b.failures);
    line += " mark_downs=";
    line += std::to_string(b.mark_downs);
    if (!b.up) {
      line += " backoff_ms=";
      line += std::to_string(b.backoff_ms);
    }
    w.field(std::string_view("backend_" + std::to_string(i)),
            std::string_view(line));
  }
  return w.finish();
}

std::string RouterService::handle_island(serve::PlanRequest req,
                                         const WireMessage& msg) {
  static obs::Counter& c_island_runs = obs::counter("dist.island_runs");
  static obs::Counter& c_island_restarts =
      obs::counter("dist.island_restarts");
  ga::IslandConfig icfg;
  std::string field_error;
  if (!parse_island_fields(msg, icfg, field_error)) {
    return error_response(field_error);
  }

  c_island_runs.inc();
  {
    util::MutexLock lock(mu_);
    ++stats_.island_runs;
  }

  const obs::SpanContext ctx = obs::new_trace_context();
  req.trace = ctx.trace;
  req.parent_span = ctx.span;

  // The ishard line: the full submit field set plus the shard plumbing, so
  // the worker reconstructs the identical problem/config and the identical
  // per-island RNG streams.
  WireMessage ishard;
  {
    std::string err;
    if (!serve::parse_wire_message(serve::render_submit_line(req), ishard,
                                   err)) {
      return error_response("internal: submit re-render failed: " + err);
    }
  }
  ishard.strings["cmd"] = "ishard";
  ishard.numbers["islands"] = static_cast<double>(icfg.islands);
  ishard.numbers["interval"] = static_cast<double>(icfg.migration_interval);
  ishard.numbers["migrants"] = static_cast<double>(icfg.migrants);

  for (int attempts = 0;; ++attempts) {
    const std::vector<std::string> workers = pool_.up_backends();
    if (workers.empty()) return error_response("no-backends-up");
    std::vector<double> weights(workers.size(), 1.0);
    for (std::size_t i = 0; i < workers.size(); ++i) {
      for (const BackendSpec& spec : cfg_.backends) {
        if (spec.id() == workers[i]) weights[i] = spec.weight;
      }
    }
    const auto groups = partition_islands(icfg.islands, weights);
    // A fresh token each attempt: a worker marked down mid-run keeps its
    // shard under the old token, and must not clash if it is back up.
    {
      util::MutexLock lock(mu_);
      ishard.strings["shard"] = "s" + std::to_string(next_shard_token_++);
    }
    std::vector<std::unique_ptr<ShardJob>> shards;
    try {
      for (std::size_t i = 0; i < workers.size(); ++i) {
        if (groups[i].first == groups[i].second) continue;
        ishard.numbers["begin"] = static_cast<double>(groups[i].first);
        ishard.numbers["end"] = static_cast<double>(groups[i].second);
        call_worker(pool_, workers[i], serve::render_wire_message(ishard));
        shards.push_back(make_remote_shard(
            [this, id = workers[i]](const std::string& line) {
              return call_worker(pool_, id, line);
            },
            ishard.strings["shard"], groups[i].first, groups[i].second));
      }
      const ShardOutcome merged =
          run_sharded_islands(shards, icfg.islands, req.config.stop_on_valid);

      JsonWriter w;
      w.field("ok", true)
          .field("state", "done")
          .field("islands", static_cast<std::uint64_t>(icfg.islands))
          .field("workers", static_cast<std::uint64_t>(shards.size()))
          .field("found_valid", merged.found_valid)
          .field("generation_found",
                 static_cast<std::uint64_t>(merged.generation_found))
          .field("generations",
                 static_cast<std::uint64_t>(merged.generations_run))
          .field("migrations", static_cast<std::uint64_t>(merged.migrations))
          .field("best_island",
                 static_cast<std::uint64_t>(merged.best_island))
          .field("valid", merged.best_valid)
          .field("steps", static_cast<std::uint64_t>(merged.best_ops.size()))
          .raw_field("plan", serve::render_int_array(merged.best_ops))
          .field("plan_cost", merged.best_plan_cost)
          .field("goal_fitness", merged.best_goal_fit)
          .field("restarts", static_cast<std::uint64_t>(attempts));
      if (ctx.valid()) w.field("trace", ctx.trace);
      return w.finish();
    } catch (const std::exception& e) {
      // Abort the attempt's shards, then restart on whoever is still up —
      // bounded by the same retry budget as single requests. A worker that
      // cannot take its iabort now (marked down) gets it when the heartbeat
      // next reaches it, so its shard does not outlive the run.
      JsonWriter abort;
      abort.field("cmd", "iabort")
          .field("shard", std::string_view(ishard.strings["shard"]));
      const std::string abort_line = abort.finish();
      for (std::size_t i = 0; i < workers.size(); ++i) {
        if (groups[i].first == groups[i].second) continue;
        WireMessage resp;
        std::string err;
        if (!pool_.rpc(workers[i], abort_line, resp, err)) {
          pool_.send_when_up(workers[i], abort_line);
        }
      }
      c_island_restarts.inc();
      {
        util::MutexLock lock(mu_);
        ++stats_.island_restarts;
      }
      if (attempts + 1 > cfg_.retry_limit) {
        return error_response("island run failed: " + std::string(e.what()));
      }
    }
  }
}

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
