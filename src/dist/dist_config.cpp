#include "dist/dist_config.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/key_value.hpp"

namespace gaplan::dist {

namespace {

bool parse_int(std::string_view value, std::int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  return ec == std::errc{} && ptr == value.data() + value.size();
}

bool parse_double(std::string_view value, double& out) {
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(value), &used);
    if (used != value.size() || v != v) return false;
    out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_bool(std::string_view value, bool& out) {
  if (value == "true" || value == "1") {
    out = true;
    return true;
  }
  if (value == "false" || value == "0") {
    out = false;
    return true;
  }
  return false;
}

void set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
}

}  // namespace

std::optional<BackendSpec> parse_backend(std::string_view text,
                                         std::string* error) {
  BackendSpec spec;
  if (text.empty()) {
    set_error(error, "empty backend spec");
    return std::nullopt;
  }
  // Split on ':' into host / port / weight. A spec with no ':' is a bare
  // port on the default host; more than three components is malformed (a
  // dropped extra field would silently change the weight).
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t colon = text.find(':', begin);
    if (colon == std::string_view::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, colon - begin));
    begin = colon + 1;
  }
  if (parts.size() > 3) {
    set_error(error,
              "too many ':' fields in backend spec '" + std::string(text) +
                  "' (want HOST:PORT[:WEIGHT])");
    return std::nullopt;
  }
  std::string_view port_part;
  if (parts.size() == 1) {
    port_part = parts[0];
  } else {
    if (parts[0].empty()) {
      set_error(error, "empty host in backend spec '" + std::string(text) + "'");
      return std::nullopt;
    }
    spec.host.assign(parts[0]);
    port_part = parts[1];
  }
  std::int64_t port = 0;
  if (!parse_int(port_part, port) || port < 0 || port > 65535) {
    set_error(error,
              "bad port in backend spec '" + std::string(text) + "'");
    return std::nullopt;
  }
  spec.port = static_cast<int>(port);
  if (parts.size() == 3) {
    if (!parse_double(parts[2], spec.weight)) {
      set_error(error,
                "bad weight in backend spec '" + std::string(text) + "'");
      return std::nullopt;
    }
  }
  return spec;
}

namespace {

/// The `.dist` setter for analysis::read_key_values. `backend` repeats, so
/// each valid one appends to the list.
analysis::KeyStatus set_router_key(RouterConfig& config, const std::string& key,
                                   const std::string& value,
                                   std::string& error) {
  bool ok = true;
  if (key == "backend") {
    const auto spec = parse_backend(value, &error);
    if (spec) config.backends.push_back(*spec);
    ok = spec.has_value();
  } else if (key == "heartbeat-interval-ms") {
    ok = parse_int(value, config.heartbeat_interval_ms);
  } else if (key == "reconnect-backoff-ms") {
    ok = parse_int(value, config.reconnect_backoff_ms);
  } else if (key == "reconnect-backoff-max-ms") {
    ok = parse_int(value, config.reconnect_backoff_max_ms);
  } else if (key == "vnodes") {
    ok = parse_int(value, config.vnodes_per_unit);
  } else if (key == "retry-limit") {
    ok = parse_int(value, config.retry_limit);
  } else if (key == "probe-fanout") {
    ok = parse_bool(value, config.probe_all_on_miss);
  } else {
    return analysis::KeyStatus::kUnknownKey;
  }
  return ok ? analysis::KeyStatus::kSet : analysis::KeyStatus::kBadValue;
}

RouterConfigFile parse_lines(std::istream& in, const std::string& path) {
  RouterConfigFile file;
  file.path = path;
  analysis::read_key_values(
      in, path, "dist", "RouterConfig",
      [&](const std::string& key, const std::string& value,
          std::string& error) {
        return set_router_key(file.config, key, value, error);
      },
      file.parse_report);
  return file;
}

}  // namespace

RouterConfigFile parse_router_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open router config: " + path);
  return parse_lines(in, path);
}

RouterConfigFile parse_router_config_text(const std::string& text,
                                          const std::string& path) {
  std::istringstream in(text);
  return parse_lines(in, path);
}

}  // namespace gaplan::dist
