#include "server/protocol.hpp"

#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "server/request_codec.hpp"

namespace gaplan::serve {

std::string error_response(std::string_view message) {
  JsonWriter w;
  w.field("ok", false).field("error", message);
  return w.finish();
}

namespace {

/// poll/wait answer: lifecycle state, the plan once done, and timing.
std::string render_status(const RequestStatus& st) {
  JsonWriter w;
  w.field("ok", true)
      .field("id", st.id)
      .field("state", std::string_view(to_string(st.state)))
      .field("cached", st.cached);
  if (st.state == RequestState::kDone) {
    w.field("valid", st.plan_valid)
        .field("steps", static_cast<std::uint64_t>(st.plan.size()))
        .raw_field("plan", render_int_array(st.plan))
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

/// trace answer: where the request's wall-clock went plus its trace id
/// (the key analyze_trace.py joins on). Carries no plan payload.
std::string render_trace(const RequestStatus& st) {
  JsonWriter w;
  w.field("ok", true)
      .field("id", st.id)
      .field("state", std::string_view(to_string(st.state)))
      .field("tracing", obs::trace_enabled());
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

/// stats answer: lifetime tallies, cache counters and latency histograms.
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
                                const obs::HistogramSample& h) {
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

/// metrics answer: the whole registry as nested JSON (default, or
/// "format":"json") or the Prometheus text exposition
/// ("format":"prometheus").
std::string render_metrics(const WireMessage& msg) {
  const std::string* format = msg.get_string("format");
  JsonWriter w;
  w.field("ok", true);
  if (format && *format == "prometheus") {
    w.field("format", "prometheus")
        .field("text", std::string_view(obs::render_metrics_prometheus(
                           obs::snapshot_metrics())));
  } else if (!format || *format == "json") {
    w.field("format", "json")
        .raw_field("metrics",
                   obs::render_metrics_json(obs::snapshot_metrics()));
  } else {
    return error_response("unknown metrics format '" + *format +
                          "' (json|prometheus)");
  }
  return w.finish();
}

/// submit: parses the request (server/request_codec.hpp), admits it, and
/// answers with its id and state ("done" on a cache hit).
std::string handle_submit(PlanService& service, const WireMessage& msg) {
  PlanRequest req;
  std::string parse_error;
  if (!parse_plan_request(msg, req, parse_error)) {
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

/// poll, wait, cancel and trace: the verbs that address a request by id.
std::string id_verb(PlanService& service, const std::string& cmd,
                    const WireMessage& msg) {
  std::uint64_t id = 0;
  std::string id_error;
  if (!msg.get_integer("id", id, id_error, 1)) return error_response(id_error);
  if (id == 0) return error_response(cmd + " needs an 'id'");
  if (cmd == "cancel") {
    const bool cancelled = service.cancel(id);
    JsonWriter w;
    w.field("ok", true).field("id", id).field("cancelled", cancelled);
    return w.finish();
  }
  const std::optional<RequestStatus> st =
      cmd == "wait"
          ? service.wait(id, msg.get_number("timeout_ms").value_or(-1.0))
          : service.status(id);
  if (!st) return error_response("unknown id " + std::to_string(id));
  return cmd == "trace" ? render_trace(*st) : render_status(*st);
}

}  // namespace

Protocol::Protocol() {
  add_verb("metrics",
           [](const WireMessage& msg, bool&) { return render_metrics(msg); });
  add_verb("shutdown", [this](const WireMessage& msg, bool& close_after) {
    const bool drain = msg.get_bool("drain").value_or(true);
    drain_.store(drain);
    shutdown_.store(true);
    close_after = true;
    JsonWriter w;
    w.field("ok", true).field("state", "shutting-down").field("drain", drain);
    return w.finish();
  });
}

void Protocol::add_verb(std::string name, Verb verb) {
  for (const auto& entry : verbs_) {
    if (entry.first == name) {
      throw std::invalid_argument("protocol verb '" + name +
                                  "' registered twice");
    }
  }
  verbs_.emplace_back(std::move(name), std::move(verb));
}

void add_service_verbs(Protocol& protocol, PlanService& service) {
  protocol.add_verb("submit", [&service](const WireMessage& msg, bool&) {
    return handle_submit(service, msg);
  });
  for (const char* cmd : {"poll", "wait", "cancel", "trace"}) {
    protocol.add_verb(cmd, [&service, cmd](const WireMessage& msg, bool&) {
      return id_verb(service, cmd, msg);
    });
  }
  protocol.add_verb("stats", [&service](const WireMessage&, bool&) {
    return render_stats(service);
  });
}

std::string Protocol::handle_line(const std::string& line,
                                  bool& close_after) const {
  WireMessage msg;
  std::string parse_error;
  if (!parse_wire_message(line, msg, parse_error)) {
    return error_response("parse: " + parse_error);
  }
  const std::string* cmd = msg.get_string("cmd");
  if (!cmd) return error_response("missing 'cmd'");
  for (const auto& [name, verb] : verbs_) {
    if (name == *cmd) return verb(msg, close_after);
  }
  std::string known;
  for (const auto& entry : verbs_) {
    known += known.empty() ? "" : "|";
    known += entry.first;
  }
  return error_response("unknown cmd '" + *cmd + "' (" + known + ")");
}

}  // namespace gaplan::serve
