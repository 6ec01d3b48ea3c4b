#include "analysis/diagnostic.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gaplan::analysis {

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kInfo: return "info";
  }
  return "?";
}

void Report::add(Severity severity, std::string code, std::string message,
                 std::string subject, SourceLoc loc) {
  diags_.push_back(Diagnostic{severity, std::move(code), std::move(message),
                              std::move(subject), std::move(loc)});
}

void Report::error(std::string code, std::string message, std::string subject,
                   SourceLoc loc) {
  add(Severity::kError, std::move(code), std::move(message), std::move(subject),
      std::move(loc));
}

void Report::warning(std::string code, std::string message, std::string subject,
                     SourceLoc loc) {
  add(Severity::kWarning, std::move(code), std::move(message),
      std::move(subject), std::move(loc));
}

void Report::merge(const Report& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::size_t Report::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == s) ++n;
  }
  return n;
}

bool Report::has_code(std::string_view code) const noexcept {
  return count_code(code) > 0;
}

std::size_t Report::count_code(std::string_view code) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.code == code) ++n;
  }
  return n;
}

std::string Report::first_error() const {
  for (const Diagnostic& d : diags_) {
    if (d.severity != Severity::kError) continue;
    std::string s = d.code + ": " + d.message;
    if (!d.subject.empty()) s += " (" + d.subject + ")";
    return s;
  }
  return {};
}

namespace {

void append_loc(std::string& out, const SourceLoc& loc) {
  if (!loc.file.empty()) {
    out += loc.file;
    out += ':';
  }
  if (loc.known()) {
    out += std::to_string(loc.line);
    out += ':';
    out += std::to_string(loc.column);
    out += ':';
  }
  if (!out.empty()) out += ' ';
}

}  // namespace

std::string Report::text() const {
  std::string out;
  for (const Diagnostic& d : diags_) {
    std::string line;
    append_loc(line, d.loc);
    line += to_string(d.severity);
    line += ": ";
    line += d.message;
    if (!d.subject.empty()) {
      line += " [";
      line += d.subject;
      line += ']';
    }
    line += " (";
    line += d.code;
    line += ")\n";
    out += line;
  }
  return out;
}

std::string Report::json() const {
  std::string out = "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : diags_) {
    if (!first) out += ',';
    first = false;
    out += "{\"severity\":";
    obs::append_json_string(out, to_string(d.severity));
    out += ",\"code\":";
    obs::append_json_string(out, d.code);
    out += ",\"message\":";
    obs::append_json_string(out, d.message);
    if (!d.subject.empty()) {
      out += ",\"subject\":";
      obs::append_json_string(out, d.subject);
    }
    if (!d.loc.file.empty()) {
      out += ",\"file\":";
      obs::append_json_string(out, d.loc.file);
    }
    if (d.loc.known()) {
      out += ",\"line\":" + std::to_string(d.loc.line);
      out += ",\"column\":" + std::to_string(d.loc.column);
    }
    out += '}';
  }
  out += "],\"errors\":" + std::to_string(count(Severity::kError));
  out += ",\"warnings\":" + std::to_string(count(Severity::kWarning));
  out += ",\"infos\":" + std::to_string(count(Severity::kInfo));
  out += "}";
  return out;
}

void Report::emit_to_journal(const char* context) const {
  static obs::Counter& c_errors = obs::counter("lint.errors");
  static obs::Counter& c_warnings = obs::counter("lint.warnings");
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kError) c_errors.inc();
    if (d.severity == Severity::kWarning) c_warnings.inc();
    if (!obs::trace_enabled()) continue;
    obs::TraceEvent ev("lint");
    ev.f("ctx", std::string_view(context))
        .f("severity", std::string_view(to_string(d.severity)))
        .f("code", std::string_view(d.code))
        .f("msg", std::string_view(d.message));
    if (!d.subject.empty()) ev.f("subject", std::string_view(d.subject));
    if (!d.loc.file.empty()) ev.f("file", std::string_view(d.loc.file));
    if (d.loc.known()) {
      ev.f("line", static_cast<std::uint64_t>(d.loc.line));
      ev.f("col", static_cast<std::uint64_t>(d.loc.column));
    }
    ev.emit();
  }
}

}  // namespace gaplan::analysis
