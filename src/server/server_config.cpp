#include "server/server_config.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>

namespace gaplan::serve {

namespace {

bool parse_size(const std::string& value, std::size_t& out) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), v);
  if (ec != std::errc{} || ptr != value.data() + value.size()) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_ms(const std::string& value, double& out) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size() || !(v >= 0.0) || v != v) return false;
    out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

KeyStatus set_server_key(ServerConfig& config, const std::string& key,
                         const std::string& value) {
  bool ok = true;
  if (key == "workers") {
    ok = parse_size(value, config.workers);
  } else if (key == "ga-threads") {
    ok = parse_size(value, config.ga_threads);
  } else if (key == "queue-capacity") {
    ok = parse_size(value, config.queue_capacity);
  } else if (key == "shed-depth") {
    ok = parse_size(value, config.shed_depth);
  } else if (key == "cache-capacity") {
    ok = parse_size(value, config.cache_capacity);
  } else if (key == "cache-shards") {
    ok = parse_size(value, config.cache_shards);
  } else if (key == "default-deadline-ms") {
    ok = parse_ms(value, config.default_deadline_ms);
  } else if (key == "max-deadline-ms") {
    ok = parse_ms(value, config.max_deadline_ms);
  } else if (key == "slice-phases") {
    ok = parse_size(value, config.slice_phases);
  } else if (key == "metrics-dump-path") {
    config.metrics_dump_path = value;
  } else if (key == "metrics-dump-ms") {
    ok = parse_ms(value, config.metrics_dump_ms);
  } else {
    return KeyStatus::kUnknownKey;
  }
  return ok ? KeyStatus::kSet : KeyStatus::kBadValue;
}

const char* server_flag_key(std::span<const ServerFlag> flags,
                            std::string_view flag) {
  for (const ServerFlag& f : flags) {
    if (f.flag == flag) return f.key;
  }
  return nullptr;
}

ServerConfigFile parse_server_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open server config: " + path);
  ServerConfigFile file;
  file.path = path;
  analysis::read_key_values(
      in, path, "server", "ServerConfig",
      [&](const std::string& key, const std::string& value, std::string&) {
        return set_server_key(file.config, key, value);
      },
      file.parse_report);
  return file;
}

}  // namespace gaplan::serve
