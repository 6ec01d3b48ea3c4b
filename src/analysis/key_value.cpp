#include "analysis/key_value.hpp"

#include <sstream>

namespace gaplan::analysis {

void read_key_values(std::istream& in, const std::string& path,
                     const std::string& prefix, const std::string& config_name,
                     const KeySetter& set, Report& report) {
  const std::string bad_value = prefix + ".bad-value";
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string key, value, extra;
    if (!(fields >> key)) continue;  // blank / comment-only line
    const SourceLoc loc{path, line_no, 1};
    if (!(fields >> value) || (fields >> extra)) {
      report.error(bad_value, "expected exactly 'key value' on this line", key,
                   loc);
      continue;
    }
    std::string error;
    switch (set(key, value, error)) {
      case KeyStatus::kSet:
        break;
      case KeyStatus::kUnknownKey:
        report.warning(prefix + ".unknown-key",
                       "unknown " + config_name + " key '" + key + "'", key,
                       loc);
        break;
      case KeyStatus::kBadValue:
        if (error.empty()) {
          error = "cannot parse '" + value + "' as a value for '" + key + "'";
        }
        report.error(bad_value, std::move(error), key, loc);
        break;
    }
  }
}

}  // namespace gaplan::analysis
