#include "dist/worker_verbs.hpp"

#include <map>
#include <memory>
#include <string>

#include "dist/cache_wire.hpp"
#include "dist/island_shard.hpp"
#include "dist/migration.hpp"
#include "obs/trace.hpp"
#include "server/problem_spec.hpp"
#include "server/request_codec.hpp"
#include "util/lock_order.hpp"
#include "util/sync.hpp"

namespace gaplan::dist {

namespace {

using serve::error_response;
using serve::JsonWriter;
using serve::WireMessage;

std::string ok_response() {
  JsonWriter w;
  w.field("ok", true);
  return w.finish();
}

/// The worker's island-shard table: one live ShardJob per router-chosen
/// token. Jobs run for whole migration intervals per istep, so the table
/// lock is never held across GA work — entries are checked out busy, run
/// unlocked, and checked back in (the same protocol BackendPool uses for
/// connections).
class ShardTable {
 public:
  std::string insert(const std::string& token, std::unique_ptr<ShardJob> job)
      GAPLAN_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
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
    ShardJob* job = nullptr;
    {
      util::MutexLock lock(mu_);
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
    util::MutexLock lock(mu_);
    const auto it = map_.find(token);
    if (it != map_.end()) {
      it->second.busy = false;
      if (erase_after) map_.erase(it);
    }
    return resp;
  }

  bool erase(const std::string& token) GAPLAN_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    const auto it = map_.find(token);
    if (it == map_.end() || it->second.busy) return false;
    map_.erase(it);
    return true;
  }

 private:
  struct Entry {
    std::unique_ptr<ShardJob> job;
    bool busy = false;
  };
  util::Mutex mu_{"dist.shards", util::lock_order::kRankDistShards};
  std::map<std::string, Entry> map_ GAPLAN_GUARDED_BY(mu_);
};

std::string handle_ishard(ShardTable& shards, const WireMessage& msg) {
  serve::PlanRequest req;
  std::string parse_error;
  if (!serve::parse_plan_request(msg, req, parse_error)) {
    return error_response(parse_error);
  }
  const std::string* token = msg.get_string("shard");
  if (!token) return error_response("ishard needs a 'shard' token");
  ga::IslandConfig icfg;
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
  req.config = serve::tuned_config(req.problem, req.config);
  try {
    auto job = make_shard_job(req.problem, req.config, icfg, begin, end,
                              req.seed, /*pool=*/nullptr);
    if (req.trace != 0 && obs::trace_enabled()) {
      job->set_span_context(obs::SpanContext{req.trace, obs::next_span_id()});
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

std::string render_outcome(const ShardOutcome& o) {
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
      .raw_field("plan", serve::render_int_array(o.best_ops));
  return w.finish();
}

}  // namespace

void add_worker_verbs(serve::Protocol& protocol) {
  serve::PlanService& service = protocol.service();
  const auto shards = std::make_shared<ShardTable>();

  protocol.add_verb("ping", [](const WireMessage&, bool&) {
    JsonWriter w;
    w.field("ok", true).field("role", "worker");
    return w.finish();
  });

  protocol.add_verb("cache_probe", [&service](const WireMessage& msg, bool&) {
    const auto fp = parse_fp_field(msg);
    if (!fp) return error_response("cache_probe needs a valid 'fp'");
    const auto hit = service.cache_lookup(*fp);
    JsonWriter w;
    w.field("ok", true).field("hit", hit.has_value());
    if (hit) append_cached_plan(w, *hit);
    return w.finish();
  });
  protocol.add_verb("cache_put", [&service](const WireMessage& msg, bool&) {
    const auto fp = parse_fp_field(msg);
    if (!fp) return error_response("cache_put needs a valid 'fp'");
    serve::CachedPlan plan;
    std::string err;
    if (!parse_cached_plan(msg, plan, err)) {
      return error_response("cache_put: " + err);
    }
    service.cache_insert(*fp, std::move(plan));
    return ok_response();
  });
  protocol.add_verb("cache_del", [&service](const WireMessage& msg, bool&) {
    const auto fp = parse_fp_field(msg);
    if (!fp) return error_response("cache_del needs a valid 'fp'");
    const bool removed = service.cache_remove(*fp);
    JsonWriter w;
    w.field("ok", true).field("removed", removed);
    return w.finish();
  });

  protocol.add_verb("ishard", [shards](const WireMessage& msg, bool&) {
    return handle_ishard(*shards, msg);
  });

  // The remaining island verbs address an existing shard by its token.
  const auto add_shard_verb = [&protocol, shards](const std::string& cmd,
                                                  auto verb) {
    protocol.add_verb(cmd, [shards, cmd, verb](const WireMessage& msg, bool&) {
      const std::string* token = msg.get_string("shard");
      if (!token) return error_response(cmd + " needs a 'shard' token");
      return verb(*shards, *token, msg);
    });
  };

  add_shard_verb("istep", [](ShardTable& table, const std::string& token,
                             const WireMessage&) {
    return table.with(token, false, [](ShardJob& job) {
      const bool boundary = job.run_interval();
      JsonWriter w;
      w.field("ok", true)
          .field("boundary", boundary)
          .field("found_valid", job.found_valid());
      return w.finish();
    });
  });
  add_shard_verb("icollect", [](ShardTable& table, const std::string& token,
                                const WireMessage& msg) {
    if (!msg.get_number("island")) {
      return error_response("icollect needs an 'island'");
    }
    std::size_t island = 0;
    std::string field_error;
    if (!msg.get_integer("island", island, field_error)) {
      return error_response(field_error);
    }
    return table.with(token, false, [island](ShardJob& job) {
      JsonWriter w;
      w.field("ok", true)
          .field("frame",
                 std::string_view(encode_migrants(job.collect(island))));
      return w.finish();
    });
  });
  add_shard_verb("imigrate", [](ShardTable& table, const std::string& token,
                                const WireMessage& msg) {
    const std::string* frame = msg.get_string("frame");
    if (!msg.get_number("island") || !frame) {
      return error_response("imigrate needs 'island' and 'frame'");
    }
    std::size_t island = 0;
    std::string field_error;
    if (!msg.get_integer("island", island, field_error)) {
      return error_response(field_error);
    }
    return table.with(token, false, [&](ShardJob& job) {
      std::string err;
      const auto batch = parse_migrants(*frame, &err);
      if (!batch) return error_response("bad frame: " + err);
      job.inject(island, *batch);
      return ok_response();
    });
  });
  add_shard_verb("iadvance", [](ShardTable& table, const std::string& token,
                                const WireMessage&) {
    return table.with(token, false, [](ShardJob& job) {
      job.advance();
      return ok_response();
    });
  });
  add_shard_verb("ifinish", [](ShardTable& table, const std::string& token,
                               const WireMessage&) {
    return table.with(token, true, [](ShardJob& job) {
      return render_outcome(job.finish());
    });
  });
  add_shard_verb("iabort", [](ShardTable& table, const std::string& token,
                              const WireMessage&) {
    JsonWriter w;
    w.field("ok", true).field("erased", table.erase(token));
    return w.finish();
  });
}

}  // namespace gaplan::dist
