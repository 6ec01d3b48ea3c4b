// The NDJSON protocol core of the planning service: one request line in,
// one response line out, dispatched through a verb table over a
// PlanService.
//
// gaplan_serve runs the table as built (submit, poll, wait, cancel, stats,
// metrics, trace, shutdown) over stdin and the TCP line server;
// gaplan_worker extends it with the distribution verbs
// (dist/worker_verbs.hpp), so a worker answers every serve verb with the
// same fields. docs/API.md "Planning service" has the wire schema.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "server/plan_service.hpp"
#include "server/wire.hpp"

namespace gaplan::serve {

/// {"ok":false,"error":<message>}: the error frame of every verb.
std::string error_response(std::string_view message);

/// poll/wait answer: lifecycle state, the plan once done, and timing.
std::string render_status(const RequestStatus& st);

/// trace answer: where the request's wall-clock went plus its trace id
/// (the key analyze_trace.py joins on). Carries no plan payload.
std::string render_trace(const RequestStatus& st);

/// stats answer: lifetime tallies, cache counters and latency histograms.
std::string render_stats(const PlanService& service);

/// metrics answer: the whole registry as nested JSON (default, or
/// "format":"json") or the Prometheus text exposition
/// ("format":"prometheus").
std::string render_metrics(const WireMessage& msg);

/// submit: parses the request (server/request_codec.hpp), admits it, and
/// answers with its id and state ("done" on a cache hit).
std::string handle_submit(PlanService& service, const WireMessage& msg);

/// The verb table over one PlanService. handle_line() is safe to call from
/// any number of threads at once; add_verb() is not, so register every
/// extension before serving.
class Protocol {
 public:
  /// One verb: the parsed frame in, the response frame out. Set
  /// `close_after` to end the connection after the response.
  using Verb =
      std::function<std::string(const WireMessage& msg, bool& close_after)>;

  explicit Protocol(PlanService& service);
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Appends `name` to the table. Throws std::invalid_argument when the
  /// name is already registered.
  void add_verb(std::string name, Verb verb);

  /// One protocol line in, one response frame out (both without newline).
  /// Malformed lines and unknown verbs answer with an error frame.
  std::string handle_line(const std::string& line, bool& close_after);

  /// True once a shutdown verb was answered; the front end then stops
  /// serving and calls PlanService::shutdown(drain()).
  bool shutdown_requested() const noexcept { return shutdown_.load(); }
  /// The last shutdown's "drain" flag (true unless it sent "drain":false).
  bool drain() const noexcept { return drain_.load(); }

  PlanService& service() noexcept { return service_; }

 private:
  std::string id_verb(const std::string& cmd, const WireMessage& msg);

  PlanService& service_;
  std::vector<std::pair<std::string, Verb>> verbs_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> drain_{true};
};

}  // namespace gaplan::serve
