#include "fleet/worker.hpp"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "support/error.hpp"

namespace ksw::fleet {

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0)
    throw ksw::fleet_error(std::string("cannot resolve /proc/self/exe: ") +
                           std::strerror(errno));
  buf[n] = '\0';
  return std::string(buf);
}

pid_t spawn_process(const std::string& binary,
                    const std::vector<std::string>& args, int child_fd) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0)
    throw ksw::fleet_error(std::string("fork failed: ") +
                           std::strerror(errno));
  if (pid == 0) {
    // Child. Every supervisor descriptor is close-on-exec; dup2 clears
    // that flag on the copies, so the worker keeps exactly its own end of
    // the socketpair as stdin and stdout. exec resets signal handlers.
    ::dup2(child_fd, STDIN_FILENO);
    ::dup2(child_fd, STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    // exec failed; there is no exception machinery worth running here.
    const char msg[] = "fleet worker: exec failed\n";
    [[maybe_unused]] const ssize_t ignored =
        ::write(STDERR_FILENO, msg, sizeof msg - 1);
    ::_exit(127);
  }
  return pid;
}

}  // namespace ksw::fleet
