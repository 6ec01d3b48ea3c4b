#include "analysis/dist_lint.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

namespace gaplan::dist {

analysis::Report lint_router_config(const RouterConfig& cfg) {
  analysis::Report report;

  if (cfg.backends.empty()) {
    report.error("dist.no-backends",
                 "no backends configured — the router has nothing to route to",
                 "backends");
  }
  std::set<std::string> seen;
  for (const BackendSpec& b : cfg.backends) {
    const std::string id = b.id();
    if (!seen.insert(id).second) {
      report.error("dist.duplicate-backend",
                   "backend '" + id +
                       "' appears more than once — its keyspace share would "
                       "be double-counted and health state would alias",
                   id);
    }
    if (!(b.weight > 0.0) || !std::isfinite(b.weight)) {
      report.error("dist.weight-nonpositive",
                   "backend '" + id + "' has weight " +
                       std::to_string(b.weight) +
                       " — it would own no ring points",
                   id);
    } else if (const double points =
                   b.weight * static_cast<double>(cfg.vnodes_per_unit);
               points > static_cast<double>(kMaxRingPointsPerBackend)) {
      char asked[32] = {};
      std::snprintf(asked, sizeof asked, "%.6g", points);
      report.error("dist.ring-too-large",
                   "backend '" + id + "' asks for " + asked +
                       " ring points (weight x vnodes) — at most " +
                       std::to_string(kMaxRingPointsPerBackend) +
                       " per backend",
                   id);
    }
  }
  if (cfg.heartbeat_interval_ms <= 0) {
    report.error("dist.bad-heartbeat-interval",
                 "heartbeat_interval_ms must be positive (" +
                     std::to_string(cfg.heartbeat_interval_ms) +
                     ") — down backends would never be detected or recovered",
                 "heartbeat_interval_ms");
  }
  if (cfg.reconnect_backoff_ms <= 0) {
    report.error("dist.bad-backoff",
                 "reconnect_backoff_ms must be positive (" +
                     std::to_string(cfg.reconnect_backoff_ms) + ")",
                 "reconnect_backoff_ms");
  } else if (cfg.reconnect_backoff_max_ms < cfg.reconnect_backoff_ms) {
    report.error("dist.bad-backoff",
                 "reconnect_backoff_max_ms (" +
                     std::to_string(cfg.reconnect_backoff_max_ms) +
                     ") is below reconnect_backoff_ms (" +
                     std::to_string(cfg.reconnect_backoff_ms) +
                     ") — backoff could never saturate",
                 "reconnect_backoff_max_ms");
  }
  if (cfg.vnodes_per_unit <= 0) {
    report.error("dist.bad-backoff",
                 "vnodes must be positive (" +
                     std::to_string(cfg.vnodes_per_unit) +
                     ") — backends would own no ring points",
                 "vnodes");
  }
  if (cfg.retry_limit < 0) {
    report.error("dist.bad-backoff",
                 "retry-limit must be non-negative (" +
                     std::to_string(cfg.retry_limit) + ")",
                 "retry_limit");
  }
  if (cfg.backends.size() == 1) {
    report.warning("dist.single-backend",
                   "only one backend configured — no failover target; retry "
                   "and probe-fanout are inert",
                   cfg.backends.front().id());
  }
  return report;
}

void enforce_router_config(const RouterConfig& cfg, const char* context) {
  const analysis::Report report = lint_router_config(cfg);
  report.emit_to_journal(context);
  if (report.has_errors()) {
    throw std::invalid_argument("RouterConfig: " + report.first_error());
  }
}

}  // namespace gaplan::dist
