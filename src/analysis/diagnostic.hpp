// Shared diagnostic model for the static analyzers (gaplan-lint).
//
// Every analyzer (domain, scenario, config) reports through a Report: a list
// of Diagnostics carrying a severity, a stable machine-readable code
// ("domain.unreachable-goal"), a human message, the named entity it is about,
// and — when the input came from a text file — a 1-based line/column source
// location. Reports render as text (one finding per line, compiler-style) or
// JSON (the `gaplan_lint --json` schema, checked by tests/test_analysis.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace gaplan::analysis {

enum class Severity { kError, kWarning, kInfo };

const char* to_string(Severity s) noexcept;

/// Where a finding points. `line` 0 means "no location known" (e.g. inputs
/// built programmatically rather than parsed from a file).
struct SourceLoc {
  std::string file;
  std::size_t line = 0;
  std::size_t column = 0;

  bool known() const noexcept { return line > 0; }
};

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;     ///< stable, dot-separated: "<analyzer>.<finding>"
  std::string message;
  std::string subject;  ///< the action/program/atom/knob the finding is about
  SourceLoc loc;
};

/// An analyzer run's findings. Analyzers only append; presentation (text,
/// JSON, journal events) lives here so every analyzer reports identically.
class Report {
 public:
  void add(Severity severity, std::string code, std::string message,
           std::string subject = {}, SourceLoc loc = {});
  void error(std::string code, std::string message, std::string subject = {},
             SourceLoc loc = {});
  void warning(std::string code, std::string message, std::string subject = {},
               SourceLoc loc = {});

  /// Appends every finding of `other` (multi-analyzer runs).
  void merge(const Report& other);

  const std::vector<Diagnostic>& diagnostics() const noexcept { return diags_; }
  bool empty() const noexcept { return diags_.empty(); }
  std::size_t count(Severity s) const noexcept;
  bool has_errors() const noexcept { return count(Severity::kError) > 0; }
  bool has_code(std::string_view code) const noexcept;
  std::size_t count_code(std::string_view code) const noexcept;
  /// First error's "code: message (subject)" — for exception texts.
  std::string first_error() const;

  /// Compiler-style listing: "file:line:col: severity: message [code]".
  std::string text() const;
  /// {"diagnostics":[{...}],"errors":N,"warnings":N,"infos":N}
  std::string json() const;

  /// Writes every finding to the run journal as a "lint" event (code,
  /// severity, msg, subject, file, line fields) and bumps the lint.errors /
  /// lint.warnings counters. `context` tags the emitting subsystem.
  void emit_to_journal(const char* context) const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace gaplan::analysis
