// RouterConfig linter (gaplan-lint): every invariant of the distribution
// layer's configuration as a structured diagnostic, mirroring server_lint
// for ServerConfig. Lives in the analysis library — it only reads the
// header-only RouterConfig fields, so gaplan_analysis takes no link
// dependency on gaplan_dist.
//
// Error codes (router and worker CLIs refuse to start on any of these):
//   dist.no-backends            empty backend list (nothing to route to)
//   dist.duplicate-backend      two backends share a host:port identity —
//                               the ring would double-count its keyspace
//                               share and health state would alias
//   dist.bad-heartbeat-interval heartbeat_interval_ms <= 0: down backends
//                               would never be detected or recovered
//   dist.weight-nonpositive     a backend weight <= 0 or non-finite (it
//                               would own no ring points)
//   dist.ring-too-large         weight x vnodes above
//                               kMaxRingPointsPerBackend ring points for one
//                               backend (the ring could not be allocated)
//   dist.bad-backoff            reconnect backoff <= 0, max below initial,
//                               or non-positive vnodes / negative retry
//                               limit
//   dist.bad-value              a .dist line that did not parse (reader)
//
// Warning codes (the router runs, but degraded):
//   dist.single-backend         one backend: no failover target, retries
//                               and the probe fanout are inert
//   dist.unknown-key            a .dist key the reader does not know (reader)
#pragma once

#include "analysis/diagnostic.hpp"
#include "dist/dist_config.hpp"

namespace gaplan::dist {

analysis::Report lint_router_config(const RouterConfig& cfg);

/// Lints `cfg`; throws std::invalid_argument("RouterConfig: ...") on the
/// first error and journals every finding under the given context tag.
void enforce_router_config(const RouterConfig& cfg, const char* context);

}  // namespace gaplan::dist
