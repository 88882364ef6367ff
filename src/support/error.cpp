#include "support/error.hpp"

namespace ksw {

const char* to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kUsage:
      return "usage";
    case ErrorKind::kIo:
      return "io";
    case ErrorKind::kNumeric:
      return "numeric";
    case ErrorKind::kGate:
      return "gate";
    case ErrorKind::kDrift:
      return "drift";
    case ErrorKind::kInterrupted:
      return "interrupted";
  }
  return "?";
}

}  // namespace ksw
