#include <algorithm>
#include <stdexcept>

#include "kswsim/cli.hpp"
#include "support/error.hpp"

namespace ksw::cli {

ArgMap ArgMap::parse(const std::vector<std::string>& args) {
  ArgMap out;
  for (const auto& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        const std::string key = arg.substr(2);
        if (key.empty())
          throw usage_error("malformed option: " + arg);
        out.values_[key] = "true";
      } else {
        const std::string key = arg.substr(2, eq - 2);
        if (key.empty())
          throw usage_error("malformed option: " + arg);
        out.values_[key] = arg.substr(eq + 1);
      }
    } else {
      out.positional_.push_back(arg);
    }
  }
  return out;
}

bool ArgMap::has(const std::string& key) const {
  const bool present = values_.count(key) != 0;
  if (present) read_[key] = true;
  return present;
}

std::string ArgMap::get(const std::string& key,
                        const std::string& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  read_[key] = true;
  return it->second;
}

double ArgMap::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  read_[key] = true;
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(it->second, &pos);
  } catch (const std::exception&) {
    throw usage_error("--" + key + ": not a number: " + it->second);
  }
  if (pos != it->second.size())
    throw usage_error("--" + key + ": not a number: " +
                                it->second);
  return v;
}

std::int64_t ArgMap::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  read_[key] = true;
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(it->second, &pos);
  } catch (const std::exception&) {
    throw usage_error("--" + key + ": not an integer: " + it->second);
  }
  if (pos != it->second.size())
    throw usage_error("--" + key + ": not an integer: " +
                                it->second);
  return v;
}

unsigned ArgMap::get_unsigned(const std::string& key,
                              unsigned fallback) const {
  const std::int64_t v = get_int(key, static_cast<std::int64_t>(fallback));
  if (v < 0 || v > 0xffffffffll)
    throw usage_error("--" + key + ": out of range");
  return static_cast<unsigned>(v);
}

std::int64_t ArgMap::get_count(const std::string& key,
                               std::int64_t fallback) const {
  const std::int64_t v = get_int(key, fallback);
  if (v < 0)
    throw usage_error("--" + key + ": must be non-negative (got " +
                      std::to_string(v) + ")");
  return v;
}

bool ArgMap::get_flag(const std::string& key) const {
  const std::string v = get(key, "false");
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw usage_error("--" + key + ": not a boolean: " + v);
}

std::vector<std::string> ArgMap::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_)
    if (read_.count(key) == 0) out.push_back(key);
  return out;
}

Format parse_format(const ArgMap& args) {
  const std::string fmt = args.get("format", "table");
  if (fmt == "table") return Format::kTable;
  if (fmt == "json") return Format::kJson;
  if (fmt == "csv") return Format::kCsv;
  throw usage_error("--format: expected table|json|csv, got " +
                              fmt);
}

void check_network_config(const sim::NetworkConfig& cfg,
                          const std::map<std::string, std::string>& renamed) {
  try {
    sim::check(cfg);
  } catch (const sim::ConfigError& e) {
    std::string option = e.field;
    std::replace(option.begin(), option.end(), '_', '-');
    const auto it = renamed.find(e.field);
    if (it != renamed.end()) option = it->second;
    throw usage_error("--" + option + ": " + e.what());
  }
}

}  // namespace ksw::cli
