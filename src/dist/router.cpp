#include "dist/router.hpp"

#ifdef GAPLAN_TCP

#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dist/cache_wire.hpp"
#include "dist/island_shard.hpp"
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

/// One ShardOutcome off an ifinish response. Throws on a malformed frame
/// (treated as a worker failure by the island loop).
ShardOutcome parse_shard_outcome(const WireMessage& msg) {
  ShardOutcome o;
  o.found_valid = msg.get_bool("found_valid").value_or(false);
  std::string error;
  if (!msg.get_integer("generation_found", o.generation_found, error) ||
      !msg.get_integer("generations_run", o.generations_run, error) ||
      !msg.get_integer("migrations", o.migrations, error) ||
      !msg.get_integer("best_island", o.best_island, error) ||
      !msg.get_integer("best_gen", o.best_gen, error)) {
    throw std::runtime_error("ifinish response: " + error);
  }
  o.best_valid = msg.get_bool("best_valid").value_or(false);
  o.best_goal_fit = msg.get_number("best_goal_fit").value_or(0.0);
  o.best_fitness = msg.get_number("best_fitness").value_or(0.0);
  o.best_plan_cost = msg.get_number("best_plan_cost").value_or(0.0);
  const std::vector<double>* ops = msg.get_array("plan");
  if (!ops) throw std::runtime_error("ifinish response missing plan array");
  o.best_ops.reserve(ops->size());
  for (const double v : *ops) {
    if (!serve::wire_int_in_range(v)) {
      throw std::runtime_error("ifinish response has non-integer plan step");
    }
    o.best_ops.push_back(static_cast<int>(v));
  }
  return o;
}

/// Thrown inside an island run when any worker RPC fails; the run restarts
/// on the surviving workers.
struct IslandRunFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace

RouterService::RouterService(RouterConfig cfg)
    : cfg_(std::move(cfg)), pool_(cfg_) {}

RouterService::~RouterService() { stop(); }

void RouterService::start() { pool_.start(); }

void RouterService::stop() { pool_.stop(); }

bool RouterService::shutdown_requested() const {
  util::MutexLock lock(mu_);
  return shutdown_requested_;
}

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
  icfg.islands = 0;
  std::string field_error;
  if (!msg.get_integer("islands", icfg.islands, field_error) ||
      !msg.get_integer("interval", icfg.migration_interval, field_error) ||
      !msg.get_integer("migrants", icfg.migrants, field_error)) {
    return error_response(field_error);
  }
  if (icfg.islands == 0) return error_response("'islands' must be >= 1");
  const bool stop_on_valid = req.config.stop_on_valid;

  c_island_runs.inc();
  std::string token;
  {
    util::MutexLock lock(mu_);
    ++stats_.island_runs;
    token = "s" + std::to_string(next_shard_token_++);
  }

  const obs::SpanContext ctx = obs::new_trace_context();
  req.trace = ctx.trace;
  req.parent_span = ctx.span;

  // The ishard line: the full submit field set plus the shard plumbing, so
  // the worker reconstructs the identical problem/config and the identical
  // per-island RNG streams.
  WireMessage base;
  {
    std::string err;
    if (!serve::parse_wire_message(serve::render_submit_line(req), base,
                                   err)) {
      return error_response("internal: submit re-render failed: " + err);
    }
  }
  base.strings["cmd"] = "ishard";
  base.strings["shard"] = token;
  base.numbers["islands"] = static_cast<double>(icfg.islands);
  base.numbers["interval"] = static_cast<double>(icfg.migration_interval);
  base.numbers["migrants"] = static_cast<double>(icfg.migrants);

  int attempts = 0;
  for (;;) {
    const std::vector<std::string> workers = pool_.up_backends();
    if (workers.empty()) return error_response("no-backends-up");
    std::vector<double> weights(workers.size(), 1.0);
    for (std::size_t i = 0; i < workers.size(); ++i) {
      for (const BackendSpec& spec : cfg_.backends) {
        if (spec.id() == workers[i]) weights[i] = spec.weight;
      }
    }
    const auto groups = partition_islands(icfg.islands, weights);
    // Shards with islands to run, in worker order.
    std::vector<std::string> ids;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (groups[i].first == groups[i].second) continue;
      ids.push_back(workers[i]);
      ranges.push_back(groups[i]);
    }
    const auto owner_of = [&](std::size_t island) -> const std::string& {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (island >= ranges[i].first && island < ranges[i].second) {
          return ids[i];
        }
      }
      throw IslandRunFailure("island owner not found");
    };

    try {
      const auto call = [&](const std::string& backend,
                            const std::string& line) -> WireMessage {
        WireMessage resp;
        std::string err;
        if (!pool_.rpc(backend, line, resp, err)) {
          throw IslandRunFailure("rpc to " + backend + " failed: " + err);
        }
        if (!resp.get_bool("ok").value_or(false)) {
          const std::string* what = resp.get_string("error");
          throw IslandRunFailure("worker " + backend + " error: " +
                                 (what ? *what : "unknown"));
        }
        return resp;
      };

      for (std::size_t i = 0; i < ids.size(); ++i) {
        WireMessage m = base;
        m.numbers["begin"] = static_cast<double>(ranges[i].first);
        m.numbers["end"] = static_cast<double>(ranges[i].second);
        call(ids[i], serve::render_wire_message(m));
      }

      const auto step_line = [&](const char* verb) {
        JsonWriter w;
        w.field("cmd", verb).field("shard", std::string_view(token));
        return w.finish();
      };

      for (;;) {
        // One interval on every shard, concurrently — each worker grinds
        // its own islands; the router only pays one round-trip per interval.
        std::vector<WireMessage> resp(ids.size());
        std::vector<std::string> errs(ids.size());
        std::vector<char> rpc_ok(ids.size(), 0);
        {
          std::vector<std::thread> threads;
          threads.reserve(ids.size());
          const std::string line = step_line("istep");
          for (std::size_t i = 0; i < ids.size(); ++i) {
            threads.emplace_back([&, i] {
              rpc_ok[i] =
                  pool_.rpc(ids[i], line, resp[i], errs[i]) ? 1 : 0;
            });
          }
          for (std::thread& t : threads) t.join();
        }
        bool boundary = false;
        bool any_valid = false;
        for (std::size_t i = 0; i < ids.size(); ++i) {
          if (!rpc_ok[i] || !resp[i].get_bool("ok").value_or(false)) {
            throw IslandRunFailure("istep on " + ids[i] +
                                   " failed: " + errs[i]);
          }
          boundary = resp[i].get_bool("boundary").value_or(false);
          any_valid =
              any_valid || resp[i].get_bool("found_valid").value_or(false);
        }
        if (!boundary) break;
        if (stop_on_valid && any_valid) break;

        // Ring migration: collect island i's elites from its owner, inject
        // them into island (i+1) mod K on *its* owner. All collects precede
        // all injects (the coordinator is the barrier ga::run_islands gets
        // for free in one process).
        std::vector<std::string> frames(icfg.islands);
        for (std::size_t i = 0; i < icfg.islands; ++i) {
          JsonWriter w;
          w.field("cmd", "icollect")
              .field("shard", std::string_view(token))
              .field("island", static_cast<std::uint64_t>(i));
          const WireMessage r = call(owner_of(i), w.finish());
          const std::string* frame = r.get_string("frame");
          if (!frame) throw IslandRunFailure("icollect missing frame");
          frames[i] = *frame;
        }
        for (std::size_t i = 0; i < icfg.islands; ++i) {
          const std::size_t target = (i + 1) % icfg.islands;
          JsonWriter w;
          w.field("cmd", "imigrate")
              .field("shard", std::string_view(token))
              .field("island", static_cast<std::uint64_t>(target))
              .field("frame", std::string_view(frames[i]));
          call(owner_of(target), w.finish());
        }
        for (const std::string& id : ids) call(id, step_line("iadvance"));
      }

      std::vector<ShardOutcome> outs;
      outs.reserve(ids.size());
      for (const std::string& id : ids) {
        outs.push_back(parse_shard_outcome(call(id, step_line("ifinish"))));
      }
      const ShardOutcome merged = merge_shard_outcomes(outs);

      JsonWriter w;
      w.field("ok", true)
          .field("state", "done")
          .field("islands", static_cast<std::uint64_t>(icfg.islands))
          .field("workers", static_cast<std::uint64_t>(ids.size()))
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
    } catch (const IslandRunFailure& e) {
      // Best-effort cleanup on the survivors, then restart on whoever is
      // still up — bounded by the same retry budget as single requests.
      for (const std::string& id : ids) {
        if (!pool_.is_up(id)) continue;
        WireMessage resp;
        std::string err;
        JsonWriter w;
        w.field("cmd", "iabort").field("shard", std::string_view(token));
        pool_.rpc(id, w.finish(), resp, err);
      }
      ++attempts;
      c_island_restarts.inc();
      {
        util::MutexLock lock(mu_);
        ++stats_.island_restarts;
      }
      if (attempts > cfg_.retry_limit) {
        return error_response("island run failed: " + std::string(e.what()));
      }
    }
  }
}

std::string RouterService::handle_line(const std::string& line,
                                       bool& close_after) {
  WireMessage msg;
  std::string parse_error;
  if (!serve::parse_wire_message(line, msg, parse_error)) {
    return error_response("parse: " + parse_error);
  }
  const std::string* cmd = msg.get_string("cmd");
  if (!cmd) return error_response("missing 'cmd'");
  if (*cmd == "submit") return route_submit(msg);
  if (*cmd == "wait" || *cmd == "poll" || *cmd == "cancel" ||
      *cmd == "trace") {
    return handle_forward(msg);
  }
  if (*cmd == "stats") return render_router_stats();
  if (*cmd == "backends") return render_backends();
  if (*cmd == "route") return handle_route(msg);
  if (*cmd == "ping") {
    JsonWriter w;
    w.field("ok", true).field("role", "router");
    return w.finish();
  }
  if (*cmd == "shutdown") {
    {
      util::MutexLock lock(mu_);
      shutdown_requested_ = true;
    }
    close_after = true;
    JsonWriter w;
    w.field("ok", true).field("state", "stopping");
    return w.finish();
  }
  return error_response("unknown cmd '" + *cmd + "'");
}

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
