#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_export.hpp"
#include "support/error.hpp"

namespace ksw::obs {
namespace {

std::vector<SpanRecord> by_name(const Tracer& tracer,
                                const std::string& name) {
  std::vector<SpanRecord> out;
  for (const auto& rec : tracer.snapshot())
    if (rec.name == name) out.push_back(rec);
  return out;
}

// ---------------------------------------------------------------------------
// Ids
// ---------------------------------------------------------------------------

TEST(Ids, HexRoundTrip) {
  EXPECT_EQ(hex_id(0), "0000000000000000");
  EXPECT_EQ(hex_id(0xdeadbeef), "00000000deadbeef");
  EXPECT_EQ(parse_hex_id("00000000deadbeef"), 0xdeadbeefu);
  EXPECT_EQ(parse_hex_id("ff"), 0xffu);
  for (const std::uint64_t id : {1ull, 42ull, 0xffffffffffffffffull})
    EXPECT_EQ(parse_hex_id(hex_id(id)), id);
}

TEST(Ids, ParseRejectsMalformed) {
  EXPECT_EQ(parse_hex_id(""), 0u);
  EXPECT_EQ(parse_hex_id("xyz"), 0u);
  EXPECT_EQ(parse_hex_id("00000000deadbeef0"), 0u);  // 17 chars
  EXPECT_EQ(parse_hex_id("dead beef"), 0u);
}

TEST(Ids, FnvIsStableAndSpreads) {
  // Pinned value: trace ids derived from manifest fingerprints must not
  // drift across builds, or resumed-run traces stop stitching.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a64("a/sec#0"), fnv1a64("a/sec#1"));
}

// ---------------------------------------------------------------------------
// Span lifecycle
// ---------------------------------------------------------------------------

TEST(Span, InertWhenDefaultConstructedOrNullTracer) {
  Span inert;
  EXPECT_FALSE(inert.active());
  inert.label("k", "v");  // must not crash
  inert.end();

  Span null_tracer(nullptr, "x");
  EXPECT_FALSE(null_tracer.active());
}

TEST(Span, RecordsNameLabelsAndPositiveIds) {
  Tracer tracer;
  {
    Span s = tracer.span("work");
    s.label("kind", "test");
    s.label("n", "3");
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_GT(spans[0].span_id, 0u);
  EXPECT_EQ(spans[0].trace_id, spans[0].span_id);  // fresh root trace
  EXPECT_EQ(spans[0].parent_id, 0u);
  ASSERT_EQ(spans[0].labels.size(), 2u);
  EXPECT_EQ(spans[0].labels[0].first, "kind");
  EXPECT_EQ(spans[0].labels[1].second, "3");
}

TEST(Span, EndIsIdempotent) {
  Tracer tracer;
  Span s = tracer.span("once");
  s.end();
  s.end();
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Span, NestingLinksParentAndInheritsTrace) {
  Tracer tracer;
  {
    Span outer = tracer.span("outer", /*trace_id=*/0x1234);
    {
      Span mid = tracer.span("mid");
      Span inner = tracer.span("inner");
      inner.end();
      mid.end();
    }
  }
  const auto outer = by_name(tracer, "outer");
  const auto mid = by_name(tracer, "mid");
  const auto inner = by_name(tracer, "inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(mid.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].trace_id, 0x1234u);
  EXPECT_EQ(outer[0].parent_id, 0u);
  EXPECT_EQ(mid[0].parent_id, outer[0].span_id);
  EXPECT_EQ(mid[0].trace_id, 0x1234u);  // inherited down the stack
  EXPECT_EQ(inner[0].parent_id, mid[0].span_id);
  EXPECT_EQ(inner[0].trace_id, 0x1234u);
}

TEST(Span, SiblingsShareAParentButNotEachOther) {
  Tracer tracer;
  {
    Span parent = tracer.span("parent");
    { Span a = tracer.span("a"); }
    { Span b = tracer.span("b"); }
  }
  const auto parent = by_name(tracer, "parent");
  const auto a = by_name(tracer, "a");
  const auto b = by_name(tracer, "b");
  ASSERT_EQ(parent.size(), 1u);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].parent_id, parent[0].span_id);
  EXPECT_EQ(b[0].parent_id, parent[0].span_id);
  EXPECT_NE(a[0].span_id, b[0].span_id);
}

TEST(Span, DifferentThreadsDoNotInheritEachOthersParents) {
  Tracer tracer;
  Span outer = tracer.span("outer");
  std::thread([&tracer] { Span other = tracer.span("other-thread"); })
      .join();
  outer.end();
  const auto other = by_name(tracer, "other-thread");
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0].parent_id, 0u);  // root on its own thread
}

TEST(Span, MoveTransfersOwnershipWithoutDoubleEmit) {
  Tracer tracer;
  {
    Span a = tracer.span("moved");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.active());
  }
  EXPECT_EQ(tracer.size(), 1u);
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

TEST(Tracer, OverflowDropsNewestAndCounts) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    Span s = tracer.span("s" + std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Drop-newest: the first four spans survived.
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].name,
              "s" + std::to_string(i));
}

TEST(Tracer, ConcurrentEmitLosesNothingBelowCapacity) {
  Tracer tracer(/*capacity=*/4096);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Span s = tracer.span("t" + std::to_string(t));
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// ksw.trace/v1 serialization
// ---------------------------------------------------------------------------

SpanRecord make_record(std::string name, std::uint64_t span_id,
                       std::uint64_t start_ns) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.trace_id = 0xabc;
  rec.span_id = span_id;
  rec.start_ns = start_ns;
  rec.dur_ns = 10;
  return rec;
}

TEST(TraceExport, RenderIsAPureFunctionOfTheRecordSet) {
  // Same records, different emit order — identical bytes. This is the
  // "merge determinism" contract: thread interleaving must not leak
  // into the serialized stream.
  std::vector<SpanRecord> forward = {make_record("a", 1, 100),
                                     make_record("b", 2, 50),
                                     make_record("c", 3, 50)};
  std::vector<SpanRecord> reversed(forward.rbegin(), forward.rend());
  EXPECT_EQ(render_trace_jsonl(forward, 0),
            render_trace_jsonl(reversed, 0));
}

TEST(TraceExport, RoundTripsThroughJsonl) {
  // Hand-built records: the serializers are pure functions, independent
  // of span emission.
  SpanRecord outer = make_record("outer", 11, 100);
  outer.trace_id = 7;
  outer.labels.emplace_back("key", "va\"lue");  // exercises escaping
  SpanRecord inner = make_record("inner", 12, 150);
  inner.trace_id = 7;
  inner.parent_id = outer.span_id;
  const std::string text = render_trace_jsonl({outer, inner}, 0);
  std::uint64_t dropped = 99;
  const auto parsed = parse_trace_jsonl(text, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(parsed.size(), 2u);
  // Canonical order sorts by start_ns: outer opened first.
  EXPECT_EQ(parsed[0].name, "outer");
  EXPECT_EQ(parsed[0].trace_id, 7u);
  ASSERT_EQ(parsed[0].labels.size(), 1u);
  EXPECT_EQ(parsed[0].labels[0].second, "va\"lue");
  EXPECT_EQ(parsed[1].name, "inner");
  EXPECT_EQ(parsed[1].parent_id, parsed[0].span_id);
  // Round-trip is byte-stable.
  EXPECT_EQ(render_trace_jsonl(parsed, dropped), text);
}

TEST(TraceExport, ParseRejectsMalformedStreams) {
  EXPECT_THROW(parse_trace_jsonl("not json\n"), Error);
  EXPECT_THROW(parse_trace_jsonl("{\"schema\":\"other/v1\"}\n"), Error);
  const std::string missing_span =
      "{\"schema\":\"ksw.trace/v1\",\"spans\":1,\"dropped\":0}\n"
      "{\"name\":\"x\"}\n";
  EXPECT_THROW(parse_trace_jsonl(missing_span), Error);
}

TEST(TraceExport, ChromeExportEmitsCompleteEvents) {
  const std::string chrome =
      render_chrome_trace({make_record("painted", 21, 100)});
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"painted\""), std::string::npos);
}

TEST(TraceExport, SummarizeComputesCountsAndQuantiles) {
  std::vector<SpanRecord> spans;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    SpanRecord rec = make_record("req", i, i);
    rec.dur_ns = i * 1000;  // 1..100 us
    spans.push_back(std::move(rec));
  }
  spans.push_back(make_record("other", 200, 1));
  const auto rows = summarize_spans(spans);
  ASSERT_EQ(rows.size(), 2u);  // name-ordered
  EXPECT_EQ(rows[0].name, "other");
  EXPECT_EQ(rows[1].name, "req");
  EXPECT_EQ(rows[1].count, 100u);
  EXPECT_NEAR(rows[1].p50_us, 50.0, 1.0);
  EXPECT_NEAR(rows[1].p99_us, 99.0, 1.0);
  EXPECT_NEAR(rows[1].max_us, 100.0, 1e-9);
  EXPECT_NEAR(rows[1].total_ms, 5.05, 0.01);
}

}  // namespace
}  // namespace ksw::obs
