// Environment-variable configuration for the benchmark harnesses.
//
// All table benches honour GAPLAN_RUNS / GAPLAN_GENS / GAPLAN_POP /
// GAPLAN_SEED / GAPLAN_PAPER_SCALE so the same binaries serve both the quick
// default sweep and the paper's full 10/50-run protocol.
#pragma once

#include <cstdint>
#include <string>

namespace gaplan::util {

/// Reads an integer env var; returns `fallback` if unset or unparsable.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Reads a string env var; returns `fallback` if unset.
std::string env_str(const char* name, const std::string& fallback);

/// True when GAPLAN_PAPER_SCALE is set to a nonzero value: benches then use
/// the paper's full replication counts instead of quick defaults.
bool paper_scale();

}  // namespace gaplan::util
