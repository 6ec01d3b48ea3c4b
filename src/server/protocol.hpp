// The NDJSON protocol core of every gaplan front end: one request line in,
// one response line out, dispatched through a verb table.
//
// The table itself parses the line, answers malformed lines and unknown
// verbs, and owns the two verbs that need no planner: metrics and
// shutdown. Each binary registers the rest on the same table:
// gaplan_serve the PlanService verbs (add_service_verbs: submit, poll,
// wait, cancel, stats, trace), gaplan_worker those plus the distribution
// verbs (dist/worker_verbs.hpp), and gaplan_router its forwarding verbs
// (dist/router.hpp). docs/API.md "Planning service" has the wire schema.
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

/// The verb table. handle_line() is safe to call from any number of
/// threads at once; add_verb() is not, so register every verb before
/// serving.
class Protocol {
 public:
  /// One verb: the parsed frame in, the response frame out. Set
  /// `close_after` to end the connection after the response.
  using Verb =
      std::function<std::string(const WireMessage& msg, bool& close_after)>;

  /// A table holding the service-free verbs, metrics and shutdown.
  Protocol();
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Appends `name` to the table. Throws std::invalid_argument when the
  /// name is already registered.
  void add_verb(std::string name, Verb verb);

  /// One protocol line in, one response frame out (both without newline).
  /// Malformed lines and unknown verbs answer with an error frame.
  std::string handle_line(const std::string& line, bool& close_after) const;

  /// True once a shutdown verb was answered; the front end then stops
  /// serving (gaplan_serve and gaplan_worker call
  /// PlanService::shutdown(drain())).
  bool shutdown_requested() const noexcept { return shutdown_.load(); }
  /// The last shutdown's "drain" flag (true unless it sent "drain":false).
  bool drain() const noexcept { return drain_.load(); }

 private:
  std::vector<std::pair<std::string, Verb>> verbs_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> drain_{true};
};

/// Appends the PlanService verbs (submit, poll, wait, cancel, stats, trace)
/// to `protocol`. `service` must outlive it.
void add_service_verbs(Protocol& protocol, PlanService& service);

}  // namespace gaplan::serve
