// Typed error taxonomy shared by every ksw subsystem.
//
// Throw sites classify failures into a small set of kinds so the CLI can
// map them onto a documented, stable exit-code table (see
// docs/ROBUSTNESS.md) instead of collapsing everything into "exit 1".
// The taxonomy lives at the bottom of the dependency graph (no ksw
// dependencies) so the analytic core, the I/O layer, and the sweep runner
// can all throw the same types.
#pragma once

#include <stdexcept>
#include <string>

namespace ksw {

/// Failure classes, each with a fixed process exit code.
enum class ErrorKind {
  kUsage,        ///< bad flags, malformed manifests, invalid combinations
  kIo,           ///< file open/write/rename/fsync failures
  kNumeric,      ///< ill-conditioned series, rho at/beyond saturation
  kGate,         ///< reproduction agreement gate failed
  kDrift,        ///< committed book differs from a fresh run (--check)
  kInterrupted,  ///< cooperative cancellation (SIGINT/SIGTERM)
};

/// Stable exit code for each kind (documented in README and
/// docs/ROBUSTNESS.md; exit 0 = success, 1 = unclassified internal error,
/// 7 = run completed but points were degraded).
[[nodiscard]] constexpr int exit_code(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kUsage:
      return 2;
    case ErrorKind::kGate:
      return 3;
    case ErrorKind::kDrift:
      return 4;
    case ErrorKind::kIo:
      return 5;
    case ErrorKind::kNumeric:
      return 6;
    case ErrorKind::kInterrupted:
      return 130;  // 128 + SIGINT, the shell convention
  }
  return 1;
}

/// Exit code for a run that finished but marked points degraded
/// (replicate failure, numeric breakdown, or --point-timeout overrun).
inline constexpr int kExitDegraded = 7;
/// Exit code for unclassified internal errors.
inline constexpr int kExitInternal = 1;

[[nodiscard]] const char* to_string(ErrorKind kind) noexcept;

/// An exception carrying its taxonomy kind. Derives from
/// std::runtime_error so existing catch(const std::exception&) handlers
/// keep working; the CLI catches Error first to pick the exit code.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] int exit_code() const noexcept {
    return ksw::exit_code(kind_);
  }

 private:
  ErrorKind kind_;
};

// Shorthand constructors, one per kind that is thrown (gate/drift are
// reported via return codes, not exceptions).
[[nodiscard]] inline Error usage_error(const std::string& message) {
  return {ErrorKind::kUsage, message};
}
[[nodiscard]] inline Error io_error(const std::string& message) {
  return {ErrorKind::kIo, message};
}
[[nodiscard]] inline Error numeric_error(const std::string& message) {
  return {ErrorKind::kNumeric, message};
}
[[nodiscard]] inline Error interrupted_error(const std::string& message) {
  return {ErrorKind::kInterrupted, message};
}

}  // namespace ksw
