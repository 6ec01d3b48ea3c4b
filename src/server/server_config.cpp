#include "server/server_config.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "server/server_lint.hpp"

namespace gaplan::serve {

void ServerConfig::validate() const {
  const analysis::Report report = lint_server_config(*this);
  if (report.has_errors()) {
    throw std::invalid_argument("ServerConfig: " + report.first_error());
  }
}

std::string ServerConfig::summary() const {
  std::ostringstream out;
  out << "workers=" << workers << " ga_threads=" << ga_threads
      << " queue=" << queue_capacity;
  if (shed_depth > 0) out << " shed=" << shed_depth;
  out << " cache=" << cache_capacity << "x" << cache_shards
      << " slice=" << slice_phases;
  if (default_deadline_ms > 0.0) out << " deadline=" << default_deadline_ms << "ms";
  if (!metrics_dump_path.empty()) {
    out << " metrics=" << metrics_dump_path << "@" << metrics_dump_ms << "ms";
  }
  return out.str();
}

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

ServerConfigFile parse_lines(std::istream& in, const std::string& path) {
  ServerConfigFile file;
  file.path = path;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string key, value, extra;
    if (!(fields >> key)) continue;  // blank / comment-only line
    const analysis::SourceLoc loc{path, line_no, 1};
    if (!(fields >> value) || (fields >> extra)) {
      file.parse_report.error("server.bad-value",
                              "expected exactly 'key value' on this line", key,
                              loc);
      continue;
    }
    switch (set_server_key(file.config, key, value)) {
      case KeyStatus::kSet:
        break;
      case KeyStatus::kUnknownKey:
        file.parse_report.warning("server.unknown-key",
                                  "unknown ServerConfig key '" + key + "'",
                                  key, loc);
        break;
      case KeyStatus::kBadValue:
        file.parse_report.error(
            "server.bad-value",
            "cannot parse '" + value + "' as a value for '" + key + "'", key,
            loc);
        break;
    }
  }
  return file;
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
  return parse_lines(in, path);
}

ServerConfigFile parse_server_config_text(const std::string& text,
                                          const std::string& path) {
  std::istringstream in(text);
  return parse_lines(in, path);
}

}  // namespace gaplan::serve
