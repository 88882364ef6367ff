// Worker-process management for the serve fleet.
//
// A fleet worker is a plain `kswsim serve` process in stdin mode: the
// supervisor fork+execs the same binary it was started from (or an
// explicit --worker-binary) with one end of a socketpair as the child's
// stdin and stdout, and keeps the other end. The worker is connected the
// moment it is forked, and it exits on EOF when the supervisor goes away.
// Reusing the whole single-process serve path is what makes the fleet's
// bit-identity guarantee structural rather than aspirational: a worker
// cannot answer differently from `kswsim serve` because it *is*
// `kswsim serve`.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace ksw::fleet {

/// Absolute path of the currently running executable (/proc/self/exe).
/// Throws ksw::Error(kFleet) when it cannot be resolved.
[[nodiscard]] std::string self_exe_path();

/// Fork+exec `binary` with `args` (argv[1..]; argv[0] is `binary`).
/// The child's stdin and stdout are `child_fd` (one end of a socketpair);
/// stderr is inherited so worker diagnostics surface in the supervisor's
/// stderr. The caller closes its copy of `child_fd` afterwards.
/// Returns the child pid; throws ksw::Error(kFleet) on fork failure.
[[nodiscard]] pid_t spawn_process(const std::string& binary,
                                  const std::vector<std::string>& args,
                                  int child_fd);

}  // namespace ksw::fleet
