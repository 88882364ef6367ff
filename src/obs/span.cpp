#include "obs/span.hpp"

#include <algorithm>

namespace ksw::obs {

namespace {

/// Per-thread stack of open spans, used only for parent/trace
/// inheritance. Frames carry the owning tracer so nesting stays correct
/// even if two tracers interleave on one thread.
struct Frame {
  const Tracer* tracer;
  std::uint64_t span_id;
  std::uint64_t trace_id;
};

thread_local std::vector<Frame> tls_open_spans;

std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Innermost open frame of `tracer` on this thread, or nullptr.
const Frame* innermost(const Tracer* tracer) noexcept {
  for (auto it = tls_open_spans.rbegin(); it != tls_open_spans.rend(); ++it)
    if (it->tracer == tracer) return &*it;
  return nullptr;
}

void pop_frame(const Tracer* tracer, std::uint64_t span_id) noexcept {
  for (auto it = tls_open_spans.rbegin(); it != tls_open_spans.rend();
       ++it) {
    if (it->tracer == tracer && it->span_id == span_id) {
      tls_open_spans.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex_id(std::uint64_t id) {
  // printf "%016llx" without printf: one id is made per served request.
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; id >>= 4)
    out[i] = "0123456789abcdef"[id & 0xf];
  return out;
}

TraceIdGenerator::TraceIdGenerator()
    : base_(fnv1a64(
          std::to_string(
              std::chrono::system_clock::now().time_since_epoch().count()) +
          "/" + std::to_string(reinterpret_cast<std::uintptr_t>(this)))) {}

std::string TraceIdGenerator::next() {
  std::uint64_t x =
      base_ + 0x9e3779b97f4a7c15ull *
                  (seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  if (x == 0) x = 1;  // hex16 "0" doubles as "no id" elsewhere
  return hex_id(x);
}

std::uint64_t parse_hex_id(std::string_view text) noexcept {
  if (text.empty() || text.size() > 16) return 0;
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9')
      value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return 0;
  }
  return value;
}

Span::Span(Tracer* tracer, std::string name, std::uint64_t trace_id) {
  if (tracer == nullptr) return;
  tracer_ = tracer;
  rec_.name = std::move(name);
  rec_.span_id = tracer->next_span_id();
  if (const Frame* parent = innermost(tracer)) {
    rec_.parent_id = parent->span_id;
    rec_.trace_id = trace_id != 0 ? trace_id : parent->trace_id;
  } else {
    rec_.trace_id = trace_id != 0 ? trace_id : rec_.span_id;
  }
  rec_.tid = thread_index();
  rec_.start_ns = tracer->now_ns();
  tls_open_spans.push_back(Frame{tracer, rec_.span_id, rec_.trace_id});
}

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), rec_(std::move(other.rec_)) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    rec_ = std::move(other.rec_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::label(std::string key, std::string value) {
  if (tracer_ == nullptr) return;
  rec_.labels.emplace_back(std::move(key), std::move(value));
}

void Span::end() {
  if (tracer_ == nullptr) return;
  rec_.dur_ns = tracer_->now_ns() - rec_.start_ns;
  pop_frame(tracer_, rec_.span_id);
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->emit(std::move(rec_));
}

Tracer::Tracer(std::size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {}

void Tracer::emit(SpanRecord rec) {
  const std::uint64_t slot = claimed_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slots_[slot].rec = std::move(rec);
  slots_[slot].ready.store(true, std::memory_order_release);
}

std::vector<SpanRecord> Tracer::snapshot() const {
  const std::uint64_t claimed = claimed_.load(std::memory_order_relaxed);
  const std::size_t upto =
      std::min<std::uint64_t>(claimed, slots_.size());
  std::vector<SpanRecord> out;
  out.reserve(upto);
  for (std::size_t i = 0; i < upto; ++i)
    if (slots_[i].ready.load(std::memory_order_acquire))
      out.push_back(slots_[i].rec);
  return out;
}

std::size_t Tracer::size() const noexcept {
  const std::uint64_t claimed = claimed_.load(std::memory_order_relaxed);
  const std::size_t upto =
      std::min<std::uint64_t>(claimed, slots_.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < upto; ++i)
    if (slots_[i].ready.load(std::memory_order_acquire)) ++n;
  return n;
}

std::uint64_t Tracer::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

}  // namespace ksw::obs
