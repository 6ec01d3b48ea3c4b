// Configuration of the in-process planning service (gaplan-serve).
//
// A ServerConfig bounds every resource the service consumes: planner worker
// slots, the admission queue, the per-GA-run evaluation thread budget, the
// plan-cache footprint, and how long any single request may occupy the
// system. All invariants are checked by server_lint.hpp (server.* diagnostic
// codes); PlanService enforces them on construction the same way the GA
// engine enforces GaConfig.
//
// Configs can also be read from a `.serve` text file (one `key value` pair
// per line, `#` comments), the format gaplan_serve --config and gaplan_lint
// consume. Parsing keeps source locations so lint findings point at lines.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/key_value.hpp"

namespace gaplan::serve {

struct ServerConfig {
  /// Planner worker slots: how many requests may be in the kPlanning state at
  /// once. Each slot is one thread of the service's scheduler pool.
  std::size_t workers = 1;
  /// Evaluation thread budget of a single GA run (1 = serial decode). The
  /// budget is served by one shared evaluation pool, not per-request threads,
  /// so concurrent runs interleave chunks instead of oversubscribing cores.
  std::size_t ga_threads = 1;
  /// Bounded admission queue: submissions beyond this depth are rejected
  /// (server.rejected, reason "queue-full").
  std::size_t queue_capacity = 64;
  /// Load shedding: once the queue is deeper than this, requests with
  /// priority <= 0 are rejected while higher-priority work is still admitted.
  /// 0 disables shedding (only the hard queue_capacity bound applies).
  std::size_t shed_depth = 0;
  /// Plan-cache entries across all shards; 0 disables the cache.
  std::size_t cache_capacity = 256;
  /// Shards of the plan cache (each an independently locked LRU).
  std::size_t cache_shards = 4;
  /// Deadline applied to requests that do not carry one (0 = unlimited).
  /// Measured from admission; a request past its deadline is kTimedOut.
  double default_deadline_ms = 0.0;
  /// Upper bound on any per-request deadline; longer requests are clamped.
  /// 0 = unlimited.
  double max_deadline_ms = 0.0;
  /// GA phases a request runs per scheduling slice before offering to yield
  /// its worker slot to waiting work of equal or higher priority.
  std::size_t slice_phases = 1;
  /// Live telemetry plane: when non-empty, the server front end runs an
  /// obs::MetricsDumper rewriting this file with the Prometheus text
  /// exposition every metrics_dump_ms (the GAPLAN_METRICS_DUMP env var
  /// overrides the path at startup). Empty disables the dumper.
  std::string metrics_dump_path;
  double metrics_dump_ms = 1000.0;
};

/// Result of reading a `.serve` file: the parsed config plus any parse-level
/// findings (unknown keys, malformed values) with source locations. Semantic
/// checks are server_lint's job; callers usually merge both reports.
struct ServerConfigFile {
  ServerConfig config;
  analysis::Report parse_report;
  std::string path;
};

/// Parses `key value` lines (see header comment). Unknown keys and bad
/// values become server.unknown-key / server.bad-value diagnostics rather
/// than exceptions, so gaplan_lint can report every problem in one pass.
/// Throws std::runtime_error only when the file cannot be read.
ServerConfigFile parse_server_config_file(const std::string& path);

/// How set_server_key() took one `key value` pair.
using KeyStatus = analysis::KeyStatus;

/// Sets the `.serve` key `key` on `config` from its text `value`, with the
/// file reader's rules: counts are unsigned decimal integers, milliseconds
/// non-negative numbers. `config` is untouched unless the result is kSet.
KeyStatus set_server_key(ServerConfig& config, const std::string& key,
                         const std::string& value);

/// A command-line flag that stands for a `.serve` key, such as
/// {"--cache", "cache-capacity"}: gaplan_serve and gaplan_worker parse their
/// service flags through set_server_key.
struct ServerFlag {
  std::string_view flag;
  const char* key;
};

/// The `.serve` key that `flag` stands for in `flags`, or nullptr.
const char* server_flag_key(std::span<const ServerFlag> flags,
                            std::string_view flag);

}  // namespace gaplan::serve
