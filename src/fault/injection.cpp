#include "fault/injection.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

namespace ksw::fault {

namespace {

struct ArmedSite {
  SiteSpec spec;
  unsigned visits = 0;
  bool fired = false;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, ArmedSite> sites;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Fast-path guard: number of armed-but-unfired sites. Injection checks in
// hot paths (Series::divide, replicate bodies) reduce to one relaxed load
// while nothing is armed.
std::atomic<int> g_live_sites{0};

[[noreturn]] void fail_spec(const std::string& what) {
  throw usage_error("fault spec: " + what);
}

unsigned parse_count(const std::string& text, const std::string& what) {
  std::size_t pos = 0;
  unsigned long v = 0;
  try {
    v = std::stoul(text, &pos);
  } catch (const std::exception&) {
    fail_spec(what + ": not a number: \"" + text + "\"");
  }
  if (pos != text.size() || v == 0 || v > 1'000'000)
    fail_spec(what + ": expected 1..1000000, got \"" + text + "\"");
  return static_cast<unsigned>(v);
}

}  // namespace

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      "replicate.throw", "replicate.slow", "point.slow", "io.open",
      "io.write", "series.near-singular"};
  return sites;
}

bool is_known_site(const std::string& site) {
  for (const std::string& s : known_sites())
    if (s == site) return true;
  return false;
}

void arm(const std::string& site, SiteSpec spec) {
  if (!is_known_site(site)) {
    std::string all;
    for (const std::string& s : known_sites())
      all += (all.empty() ? "" : ", ") + s;
    throw usage_error("unknown fault site \"" + site + "\" (known: " + all +
                      ")");
  }
  if (spec.fire_at == 0) fail_spec("fire_at must be >= 1");
  if (spec.delay_ms < 0) fail_spec("delay_ms must be >= 0");
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  const auto it = reg.sites.find(site);
  if (it != reg.sites.end()) {
    if (!it->second.fired) g_live_sites.fetch_sub(1, std::memory_order_relaxed);
    reg.sites.erase(it);
  }
  reg.sites.emplace(site, ArmedSite{spec});
  g_live_sites.fetch_add(1, std::memory_order_relaxed);
}

void arm_from_spec(const std::string& spec) {
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    SiteSpec site_spec;
    const std::size_t colon = entry.find(':');
    if (colon != std::string::npos) {
      site_spec.delay_ms = static_cast<std::int64_t>(
          parse_count(entry.substr(colon + 1), "delay"));
      entry = entry.substr(0, colon);
    }
    const std::size_t at = entry.find('@');
    if (at != std::string::npos) {
      site_spec.fire_at = parse_count(entry.substr(at + 1), "fire_at");
      entry = entry.substr(0, at);
    }
    arm(entry, site_spec);
  }
}

void arm_from_env() {
  const char* env = std::getenv("KSW_FAULTS");
  if (env == nullptr || *env == '\0') return;
  arm_from_spec(env);
}

void disarm_all() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  reg.sites.clear();
  g_live_sites.store(0, std::memory_order_relaxed);
}

bool any_armed() {
  return g_live_sites.load(std::memory_order_relaxed) > 0;
}

bool should_fire(const char* site) {
  if (g_live_sites.load(std::memory_order_relaxed) == 0) return false;
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  const auto it = reg.sites.find(site);
  if (it == reg.sites.end() || it->second.fired) return false;
  ++it->second.visits;
  if (it->second.visits != it->second.spec.fire_at) return false;
  it->second.fired = true;
  g_live_sites.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void maybe_fail(const char* site) {
  if (should_fire(site))
    throw InjectedFault("injected fault at site " + std::string(site));
}

void maybe_delay(const char* site) {
  std::int64_t delay_ms = 0;
  {
    if (g_live_sites.load(std::memory_order_relaxed) == 0) return;
    Registry& reg = registry();
    std::lock_guard lock(reg.mu);
    const auto it = reg.sites.find(site);
    if (it == reg.sites.end() || it->second.fired) return;
    ++it->second.visits;
    if (it->second.visits != it->second.spec.fire_at) return;
    it->second.fired = true;
    g_live_sites.fetch_sub(1, std::memory_order_relaxed);
    delay_ms = it->second.spec.delay_ms;
  }
  if (delay_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
}

}  // namespace ksw::fault
