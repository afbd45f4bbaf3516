// Typed serving-layer errors (DESIGN.md §B2).
//
// Admission failures are *values* (ServeError on the Submitted handle):
// a shed request never owned a future, so there is nothing to throw
// through.  Failures of an admitted request travel through its future as
// typed exceptions, so callers can tell overload/shutdown/routing policy
// apart from model-level errors (e.g. the scenario feature-gating
// std::runtime_error) without string matching.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace rnx::serve {

enum class ServeError : std::uint8_t {
  kNone = 0,       ///< admitted; the future will resolve
  kOverloaded,     ///< queue at max depth: request shed at admission
  kUnknownModel,   ///< registry routing: no bundle under that name
  kShutdown,       ///< scheduler is (or went) down
  kDraining,       ///< graceful drain in progress: new work refused
  kDeadlineExceeded,  ///< deadline already unmeetable at admission
  kInvalidRequest,    ///< a sample fails admission validation
};

[[nodiscard]] constexpr const char* to_string(ServeError e) noexcept {
  switch (e) {
    case ServeError::kNone: return "none";
    case ServeError::kOverloaded: return "overloaded";
    case ServeError::kUnknownModel: return "unknown-model";
    case ServeError::kShutdown: return "shutdown";
    case ServeError::kDraining: return "draining";
    case ServeError::kDeadlineExceeded: return "deadline-exceeded";
    case ServeError::kInvalidRequest: return "invalid-request";
  }
  return "invalid";
}

// Note there is deliberately no OverloadedError exception: overload is
// an admission failure, which is always a value (kOverloaded) — a shed
// request never owns a future for an exception to travel through.

/// Registry lookup failed: no engine is registered under the name.
class UnknownModelError : public std::runtime_error {
 public:
  explicit UnknownModelError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The scheduler shut down with the request still pending.
class ShutdownError : public std::runtime_error {
 public:
  explicit ShutdownError(const std::string& what)
      : std::runtime_error(what) {}
};

/// An admitted request's deadline passed before its batch executed; the
/// scheduler resolved the future without paying the forward pass
/// (counted `expired`).
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The caller cancelled an admitted request (Submitted::request_cancel)
/// before the scheduler started executing it (counted `cancelled`).
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace rnx::serve
