// Router configuration: backend membership + health/retry knobs, and the
// `.dist` config-file format that carries them.
//
// The file format follows the `.serve` idiom (server_config.hpp): one
// `key value` pair per line, `#` comments, unknown keys are parse errors.
// The one multi-valued key is `backend`, which repeats:
//
//   # two local workers, the second with double weight
//   backend 127.0.0.1:7101
//   backend 127.0.0.1:7102:2.0
//   heartbeat-interval-ms 500
//   reconnect-backoff-ms  100
//   vnodes    64
//   retry-limit 2
//   probe-fanout true
//
// Parsing is deliberately permissive about *values* (it records what it saw)
// and strict about *shape*; semantic validation lives in the dist lint pass
// (src/analysis/dist_lint.hpp) so the router CLI, gaplan-lint and tests all
// diagnose the same way with the same dist.* codes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hpp"

namespace gaplan::dist {

/// One backend worker. `weight` scales its virtual-node count on the hash
/// ring, i.e. its share of the fingerprint keyspace.
struct BackendSpec {
  std::string host = "127.0.0.1";
  int port = 0;
  double weight = 1.0;

  /// Ring/backend-table identity. Inline so header-only consumers (the dist
  /// lint pass in gaplan_analysis) need no link dependency on gaplan_dist.
  std::string id() const { return host + ":" + std::to_string(port); }

  bool operator==(const BackendSpec&) const = default;
};

/// Parses "HOST:PORT" or "HOST:PORT:WEIGHT" (also bare "PORT" with the
/// default host). Returns std::nullopt and fills `error` on malformed input;
/// out-of-range semantic values (port 0, weight <= 0) parse fine and are the
/// lint pass's job.
std::optional<BackendSpec> parse_backend(std::string_view text,
                                         std::string* error = nullptr);

/// Most ring points one backend may own (weight × vnodes_per_unit). The dist
/// lint rejects configs past it (dist.ring-too-large): a huge finite weight
/// would otherwise ask the ring for billions of points, or for a count that
/// does not fit in an integer at all.
inline constexpr std::int64_t kMaxRingPointsPerBackend = std::int64_t{1} << 20;

struct RouterConfig {
  std::vector<BackendSpec> backends;
  /// Heartbeat (ping verb) period per backend.
  std::int64_t heartbeat_interval_ms = 500;
  /// Reconnect backoff: starts at `reconnect_backoff_ms`, doubles per
  /// consecutive failure, saturates at `reconnect_backoff_max_ms`.
  std::int64_t reconnect_backoff_ms = 100;
  std::int64_t reconnect_backoff_max_ms = 5000;
  /// Virtual-node points per 1.0 of backend weight.
  std::int64_t vnodes_per_unit = 64;
  /// How many distinct backends a failed idempotent request may be retried
  /// on (beyond the first attempt) before the router gives up.
  std::int64_t retry_limit = 2;
  /// On a primary cache_probe miss, also probe the other up backends and
  /// repair the primary with any hit before dispatching.
  bool probe_all_on_miss = true;
};

/// A parsed `.dist` file: the config plus line-numbered parse diagnostics
/// (dist.bad-value / dist.unknown-key), same shape as ServerConfigFile.
/// Semantic findings come from lint_router_config on top of these.
struct RouterConfigFile {
  RouterConfig config;
  analysis::Report parse_report;
  std::string path;
};

/// Parses `key value` lines (see header comment). Unknown keys and malformed
/// values become diagnostics, not exceptions, so gaplan_lint reports every
/// problem in one pass. The file variant throws std::runtime_error only when
/// the file cannot be read.
RouterConfigFile parse_router_config_file(const std::string& path);
RouterConfigFile parse_router_config_text(const std::string& text,
                                          const std::string& path = "<memory>");

}  // namespace gaplan::dist
