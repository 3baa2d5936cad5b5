#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

/// \file error.hpp
/// \brief Stable error taxonomy for the public job API and the wire protocol.
///
/// Every failure a client can observe — through the in-process
/// api::LocalService, the mighty-serve daemon, or the shell — carries one of
/// these codes.  The numeric values are part of the wire protocol
/// (docs/protocol.md) and must never be renumbered; new codes append.
///
/// Exceptions carry codes through the CodedError mixin: api::Error for
/// runtime failures (I/O, malformed networks, exhausted budgets) and
/// api::ScriptError for flow-script parse errors (which historically — and
/// contractually, for existing callers — derive from std::invalid_argument).
/// classify() maps any exception to its code, so catch sites report
/// machine-readable errors without string matching.

namespace mighty::api {

enum class ErrorCode : uint32_t {
  ok = 0,

  // --- request validation -----------------------------------------------------
  invalid_script = 1,   ///< flow script does not parse
  invalid_network = 2,  ///< network (BLIF) does not parse or is unsupported
  invalid_request = 3,  ///< structurally valid pieces, but an unusable request
  job_not_found = 4,    ///< no job with the given id (or its result was collected)

  // --- job lifecycle ----------------------------------------------------------
  cancelled = 5,                 ///< job cancelled by the client
  node_budget_exceeded = 6,      ///< an intermediate network outgrew the cap
  wall_budget_exceeded = 7,      ///< the job ran past its wall-clock budget
  conflict_budget_exceeded = 8,  ///< the job spent its SAT-conflict allowance
  shutting_down = 9,             ///< service no longer accepts work

  // --- environment ------------------------------------------------------------
  io_error = 10,      ///< file or socket I/O failed
  check_failed = 11,  ///< invariant validation rejected a network
  unsupported = 12,   ///< operation not available on this service

  // --- protocol ---------------------------------------------------------------
  version_mismatch = 13,  ///< HELLO version differs from the server's
  malformed_frame = 14,   ///< payload bytes do not decode as the tagged message
  oversized_frame = 15,   ///< declared frame length exceeds the protocol cap
  unknown_message = 16,   ///< frame tag the server does not recognize
  connection_lost = 17,   ///< peer vanished mid-conversation

  internal = 18,  ///< anything that escaped the taxonomy (a bug to classify)
};

/// Stable lowercase identifier ("invalid_script", ...) for logs, the shell
/// and test assertions; "?" for values outside the enum.
const char* error_code_name(ErrorCode code);

/// Mixin for exceptions that carry an ErrorCode.  A mixin rather than a
/// single base class because the script parser's exceptions must stay
/// std::invalid_argument (the documented contract of Pipeline::parse) while
/// runtime failures stay std::runtime_error — both worlds get codes without
/// breaking an existing catch site.
class CodedError {
 public:
  CodedError() = default;
  CodedError(const CodedError&) = default;
  CodedError& operator=(const CodedError&) = default;
  virtual ~CodedError() = default;
  virtual ErrorCode code() const = 0;
};

/// A runtime failure with a stable code.  Derives from std::runtime_error, so
/// every pre-taxonomy catch site keeps working.
class Error : public std::runtime_error, public CodedError {
 public:
  Error(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const override { return code_; }

 private:
  ErrorCode code_;
};

/// A flow-script parse failure: still a std::invalid_argument (callers and
/// tests rely on that), now carrying ErrorCode::invalid_script.
class ScriptError : public std::invalid_argument, public CodedError {
 public:
  explicit ScriptError(const std::string& what) : std::invalid_argument(what) {}
  ErrorCode code() const override { return ErrorCode::invalid_script; }
};

/// Maps any exception to its ErrorCode: coded exceptions report their own
/// code; bare std::invalid_argument means a rejected argument
/// (invalid_request); std::logic_error is the invariant checker's voice
/// (check_failed); everything else is internal.
ErrorCode classify(const std::exception& e);

}  // namespace mighty::api
