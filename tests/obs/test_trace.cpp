// The event tracer: enable/disable semantics, tid scoping, span/instant/
// sample recording, and the two export formats.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

namespace pts::obs {
namespace {

/// Each test drives the process-global tracer; reset around every test so
/// order does not matter.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().set_enabled(false);
    tracer().clear();
  }
  void TearDown() override {
    tracer().set_enabled(false);
    tracer().clear();
  }
};

TEST_F(TraceTest, DisabledByDefaultAndScopesAreInert) {
  EXPECT_FALSE(tracer().enabled());
  {
    SpanScope span("should_not_record");
    tracer().instant("also_not_recorded");
  }
  EXPECT_EQ(tracer().size(), 0U);
}

TEST_F(TraceTest, RecordsSpansInstantsAndSamples) {
  tracer().set_enabled(true);
  { SpanScope span("phase", {{"round", 2.0}}); }
  tracer().instant("event", {{"x", 1.5}}, "kind", "diversified");
  tracer().sample("queue_depth", 4.0);
  ASSERT_EQ(tracer().size(), 3U);

  const auto events = tracer().snapshot();
  EXPECT_STREQ(events[0].name, "phase");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_GE(events[0].dur_us, 0);
  ASSERT_EQ(events[0].args.size(), 1U);
  EXPECT_STREQ(events[0].args[0].key, "round");
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 2.0);
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[1].detail, "diversified");
  EXPECT_EQ(events[2].phase, 'C');
}

TEST_F(TraceTest, SpanScopeMeasuresItsOwnLifetime) {
  tracer().set_enabled(true);
  {
    SpanScope span("scoped", {{"a", 1.0}});
  }
  ASSERT_EQ(tracer().size(), 1U);
  const auto events = tracer().snapshot();
  EXPECT_STREQ(events[0].name, "scoped");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_GE(events[0].dur_us, 0);
  ASSERT_EQ(events[0].args.size(), 1U);
}

TEST_F(TraceTest, SpanArmedAtConstructionSurvivesDisable) {
  tracer().set_enabled(true);
  {
    SpanScope span("armed_early");
    tracer().set_enabled(false);
  }  // still records: armed when tracing was on
  tracer().set_enabled(true);
  EXPECT_EQ(tracer().size(), 1U);
}

TEST_F(TraceTest, TidScopeTagsEventsAndRestores) {
  tracer().set_enabled(true);
  EXPECT_EQ(thread_tid(), 0U);
  {
    TidScope tid(3);
    EXPECT_EQ(thread_tid(), 3U);
    tracer().instant("from_three");
    {
      TidScope inner(5);
      tracer().instant("from_five");
    }
    EXPECT_EQ(thread_tid(), 3U);
  }
  EXPECT_EQ(thread_tid(), 0U);
  const auto events = tracer().snapshot();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].tid, 3U);
  EXPECT_EQ(events[1].tid, 5U);
}

TEST_F(TraceTest, TidIsPerThread) {
  tracer().set_enabled(true);
  TidScope main_tid(1);
  std::thread worker([] {
    EXPECT_EQ(thread_tid(), 0U);  // scopes do not leak across threads
    TidScope tid(2);
    tracer().instant("worker");
  });
  worker.join();
  tracer().instant("main");
  const auto events = tracer().snapshot();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].tid, 2U);
  EXPECT_EQ(events[1].tid, 1U);
}

TEST_F(TraceTest, ChromeTraceIsWellFormedAndSorted) {
  tracer().set_enabled(true);
  // Append a later-starting event first: the writer must sort by start
  // timestamp. Hand-built events pin the timestamps (µs clock ties would
  // make real calls land on the same tick and defeat the point).
  tracer().record_event({"later", 'i', 0, 10, 0, {{"v", 1.0}}, nullptr, {}});
  tracer().record_event({"earlier", 'X', 0, 5, 7, {}, nullptr, {}});
  tracer().name_thread(1, "slave-0");

  std::ostringstream out;
  tracer().write_chrome_trace(out);
  const auto text = out.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0U);
  EXPECT_NE(text.find("\"name\":\"earlier\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"slave-0\""), std::string::npos);
  EXPECT_LT(text.find("\"name\":\"earlier\""), text.find("\"name\":\"later\""));
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(TraceTest, JsonlHasOneObjectPerEvent) {
  tracer().set_enabled(true);
  tracer().instant("a");
  tracer().instant("b", {}, "note", "quote\"and\\slash");
  std::ostringstream out;
  tracer().write_jsonl(out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\""), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, 2U);
  // The escaping round-trip: raw quote/backslash never appear unescaped.
  EXPECT_NE(out.str().find("quote\\\"and\\\\slash"), std::string::npos);
}

TEST_F(TraceTest, ClearEmptiesTheBuffer) {
  tracer().set_enabled(true);
  tracer().instant("x");
  EXPECT_EQ(tracer().size(), 1U);
  tracer().clear();
  EXPECT_EQ(tracer().size(), 0U);
}

TEST_F(TraceTest, ConcurrentRecordingIsSafe) {
  tracer().set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kEach = 100;
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        TidScope tid(static_cast<std::uint32_t>(t) + 1);
        for (int i = 0; i < kEach; ++i) tracer().instant("tick");
      });
    }
  }
  EXPECT_EQ(tracer().size(), static_cast<std::size_t>(kThreads) * kEach);
}

}  // namespace
}  // namespace pts::obs
