// kswsim command-line interface.
//
// Subcommands:
//   analyze    exact first-stage analysis (Theorem 1)
//   network    whole-network estimates (Sections IV-V)
//   simulate   cycle-accurate network simulation
//   calibrate  re-fit the Section IV interpolation constants
//   reproduce  regenerate the paper-reproduction book from a manifest
//   serve      long-lived analytic query service (ksw.query/v1 JSONL)
//   trace      summarize / export ksw.trace/v1 span streams
//
// All commands accept --format=table|json|csv. Command logic is exposed as
// functions over streams so the test suite can drive it directly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/service_spec.hpp"

namespace ksw::cli {

/// Parsed command-line options: --key=value pairs, bare --flag booleans,
/// and positional arguments. Unknown-option detection is the caller's job
/// via `unused()`.
class ArgMap {
 public:
  /// Parse; throws std::invalid_argument on malformed input ("--=x").
  static ArgMap parse(const std::vector<std::string>& args);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] unsigned get_unsigned(const std::string& key,
                                      unsigned fallback) const;
  /// Non-negative integer; a negative value is a usage error.
  [[nodiscard]] std::int64_t get_count(const std::string& key,
                                       std::int64_t fallback) const;
  [[nodiscard]] bool get_flag(const std::string& key) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Keys that were provided but never read — for unknown-option errors.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

/// Output format shared by all commands.
enum class Format { kTable, kJson, kCsv };

/// Parse --format (default table); throws on unknown value.
[[nodiscard]] Format parse_format(const ArgMap& args);

/// Parse a service-spec string: "det:M", "geo:MU", or
/// "multi:M1@P1,M2@P2,...". Throws std::invalid_argument on syntax errors.
[[nodiscard]] sim::ServiceSpec parse_service(const std::string& text);

/// sim::check(cfg), reporting a rejected field as a usage error that names
/// the option setting it: "--<option>: <rule>". `renamed` maps the
/// NetworkConfig fields a command spells differently; any other field
/// "x_y" is the option --x-y.
void check_network_config(const sim::NetworkConfig& cfg,
                          const std::map<std::string, std::string>& renamed);

// Subcommands: return a process exit code.
int cmd_analyze(const ArgMap& args, std::ostream& out, std::ostream& err);
int cmd_network(const ArgMap& args, std::ostream& out, std::ostream& err);
int cmd_simulate(const ArgMap& args, std::ostream& out, std::ostream& err);
int cmd_calibrate(const ArgMap& args, std::ostream& out, std::ostream& err);
int cmd_reproduce(const ArgMap& args, std::ostream& out, std::ostream& err);
int cmd_serve(const ArgMap& args, std::ostream& out, std::ostream& err);
int cmd_trace(const ArgMap& args, std::ostream& out, std::ostream& err);

/// Top-level dispatch (args excludes argv[0]).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace ksw::cli
