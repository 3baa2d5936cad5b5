#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "check.hpp"

/// \file diagnostics.hpp
/// \brief Shared diagnostic engine: suppression matching, ordering, output.
///
/// Every check funnels its findings through one DiagnosticEngine, so the
/// suppression syntax, the output format and the exit-code policy are the
/// same for all of them.
///
/// Suppression syntax (the reason is mandatory — see docs/linting.md):
///
///     some_code();  // mighty-lint: allow(check-name): why this is safe
///
/// A trailing comment suppresses its own line; a comment alone on a line
/// suppresses the next line that carries code.  A malformed allow (unknown
/// check, missing reason) is itself a diagnostic under the reserved check
/// name "allow", and never suppresses anything; an allow that matched no
/// diagnostic is reported as stale when the full check set ran.

namespace mighty::lint {

struct Allow {
  int comment_line = 0;  ///< line the comment sits on
  int target_line = 0;   ///< line of code it suppresses
  std::string check;
  std::string reason;
  bool used = false;
};

struct FileSuppressions {
  std::vector<Allow> allows;
};

struct Diagnostic {
  std::string vpath;
  int line = 0;
  int col = 0;
  std::string check;
  std::string message;

  bool operator<(const Diagnostic& other) const {
    if (vpath != other.vpath) return vpath < other.vpath;
    if (line != other.line) return line < other.line;
    if (col != other.col) return col < other.col;
    if (check != other.check) return check < other.check;
    return message < other.message;
  }
};

class DiagnosticEngine final : public Sink {
public:
  /// `known_checks` validates allow(...) targets; reserved name "allow" is
  /// implicit.
  explicit DiagnosticEngine(std::set<std::string> known_checks)
      : known_checks_(std::move(known_checks)) {}

  /// Parses the allow-comments of `unit`; malformed ones become "allow"
  /// diagnostics immediately.  Call once per file before any check runs.
  void register_file(const FileUnit& unit);

  void report(const FileUnit& unit, int line, int col, const std::string& check,
              const std::string& message) override;

  /// Reports every allow that suppressed nothing.  Only meaningful when all
  /// checks ran; the caller skips this under --check filtering.
  void flag_unused_allows();

  /// Sorts, prints to `out`, returns the number of unsuppressed diagnostics.
  size_t flush(std::FILE* out);

  size_t suppressed_count() const { return suppressed_; }

private:
  std::set<std::string> known_checks_;
  std::map<std::string, FileSuppressions> suppressions_;  ///< by vpath
  std::vector<Diagnostic> diagnostics_;
  size_t suppressed_ = 0;
};

}  // namespace mighty::lint
