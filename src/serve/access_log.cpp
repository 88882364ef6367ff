#include "serve/access_log.hpp"

#include <charconv>

#include "support/error.hpp"

namespace ksw::serve {

namespace {

/// Microseconds with fixed sub-microsecond precision: enough to see the
/// queue/eval split, stable width for eyeballing logs. printf "%.3f"
/// bytes, without printf's per-call cost.
void append_micros(std::string& line, double us) {
  char buf[320];  // %.3f of the largest double
  const auto res = std::to_chars(buf, buf + sizeof buf, us < 0.0 ? 0.0 : us,
                                 std::chars_format::fixed, 3);
  line.append(buf, res.ptr);
}

}  // namespace

std::string render_access_entry(const AccessEntry& entry) {
  std::string line;
  line.reserve(192);  // a typical row, so it is built in one allocation
  line += "{\"trace_id\":\"";
  line += io::json_escape(entry.trace_id);
  line += "\",\"id\":";
  line += entry.id.to_string();
  line += ",\"kernel\":";
  if (entry.kernel.empty()) {
    line += "null";
  } else {
    line += '"';
    line += io::json_escape(entry.kernel);
    line += '"';
  }
  line += ",\"ok\":";
  line += entry.ok ? "true" : "false";
  if (!entry.error_kind.empty()) {
    line += ",\"error_kind\":\"";
    line += io::json_escape(entry.error_kind);
    line += '"';
  }
  line += ",\"cached\":";
  line += entry.cached ? "true" : "false";
  line += ",\"shard\":";
  line += std::to_string(entry.shard);
  line += ",\"queue_us\":";
  append_micros(line, entry.queue_us);
  line += ",\"eval_us\":";
  append_micros(line, entry.eval_us);
  if (entry.deadline_ms > 0) {
    line += ",\"deadline_ms\":";
    line += std::to_string(entry.deadline_ms);
  }
  line += '}';
  return line;
}

AccessLog::AccessLog(const std::string& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_)
    throw ksw::io_error("--access-log: cannot open " + path +
                        " for writing");
}

void AccessLog::write(std::string_view rows) {
  const std::lock_guard<std::mutex> lock(mu_);
  out_.write(rows.data(), static_cast<std::streamsize>(rows.size()));
  out_.flush();
  if (!out_)
    throw ksw::io_error("--access-log: write to " + path_ + " failed");
}

}  // namespace ksw::serve
