// Deterministic fault injection for resilience testing.
//
// Production code is instrumented with *named injection sites* — fixed
// points where a failure can be forced: a replicate task throwing, a file
// open/write failing, an artificially slow grid point, a near-singular
// series division. Sites are inert (a single relaxed atomic load) until
// *armed* via the KSW_FAULTS environment variable, a --fault-plan JSON
// file (fault/plan.hpp), or fault::arm() in tests. Each armed site fires
// exactly once, on its configured visit, so every degradation path is
// exercisable deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace ksw::fault {

/// Thrown by sites that simulate an unclassified crash (replicate.throw).
/// Deliberately NOT a ksw::Error: it models a bug-like failure, so it
/// exercises the unclassified-exception handling paths.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& message)
      : std::runtime_error(message) {}
};

/// When an armed site fires and what it does then.
struct SiteSpec {
  unsigned fire_at = 1;        ///< fire on the Nth visit (1-based)
  std::int64_t delay_ms = 0;   ///< sleep duration for delay sites
};

/// The registered site names, in documentation order:
///   replicate.throw      a sweep replicate task throws
///   replicate.slow       one sweep replicate stalls for delay_ms (kill/
///                        resume tests interrupt it mid-simulation)
///   point.slow           a grid point stalls for delay_ms
///   io.open              io::atomic_write_file fails to open the temp file
///   io.write             io::atomic_write_file fails mid-write
///   series.near-singular pgf::Series::divide or ::ratio hits an
///                        ill-conditioned denominator
[[nodiscard]] const std::vector<std::string>& known_sites();
[[nodiscard]] bool is_known_site(const std::string& site);

/// Arm one site. Throws ksw::Error(kUsage) for unknown sites.
void arm(const std::string& site, SiteSpec spec = {});

/// Arm from a compact spec string: comma-separated `site[@N][:MS]`
/// entries (`@N` = fire on the Nth visit, `:MS` = delay in milliseconds
/// for delay sites), e.g. "replicate.throw@3,point.slow:250".
void arm_from_spec(const std::string& spec);

/// Arm from the KSW_FAULTS environment variable (same grammar as
/// arm_from_spec). No-op when unset or empty.
void arm_from_env();

/// Disarm every site and reset visit counters (tests).
void disarm_all();

/// True when at least one site is armed and has not fired yet.
[[nodiscard]] bool any_armed();

/// Record a visit to `site`; true exactly when the armed spec says this
/// visit fires. Near-zero cost while nothing is armed.
[[nodiscard]] bool should_fire(const char* site);

/// should_fire + throw InjectedFault (for crash-simulation sites).
void maybe_fail(const char* site);

/// should_fire + sleep for the armed delay (for slow-site simulation).
void maybe_delay(const char* site);

}  // namespace ksw::fault
