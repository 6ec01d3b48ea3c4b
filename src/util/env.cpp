#include "util/env.hpp"

#include <cstdlib>

namespace gaplan::util {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : fallback;
}

bool paper_scale() { return env_int("GAPLAN_PAPER_SCALE", 0) != 0; }

}  // namespace gaplan::util
