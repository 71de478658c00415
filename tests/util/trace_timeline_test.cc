// Tests for the timeline tracing layer: ring-buffer round trips and
// wraparound, trace-context propagation (nesting and across the thread
// pool), Chrome trace-event JSON rendering, and concurrent producers racing
// a snapshot (run under TSan by check.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::telemetry::timeline {
namespace {

class TraceTimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_enabled_ = CollectionEnabled();
    previous_capacity_ = BufferCapacity();
    ClearEvents();
  }
  void TearDown() override {
    SetCollectionEnabled(previous_enabled_);
    SetBufferCapacity(previous_capacity_);
    ClearEvents();
  }

  bool previous_enabled_ = false;
  size_t previous_capacity_ = 0;
};

/// Events produced by this test binary only ever use sites registered via
/// GetSpan, so names are stable process-wide.
SpanSite* TestSite(const std::string& name) { return GetSpan(name); }

TEST_F(TraceTimelineTest, EmitAndSnapshotRoundTrip) {
  SetCollectionEnabled(true);
  SpanSite* site = TestSite("timeline_test/round_trip");
  ScopedContext ctx({.clip = 7});
  EmitBegin(site);
  EmitEnd(site);
  SetCollectionEnabled(false);

  const std::vector<Event> events = SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "timeline_test/round_trip");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(events[0].clip, 7);
  EXPECT_EQ(events[1].clip, 7);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
}

TEST_F(TraceTimelineTest, ScopedSpanEmitsOnlyWhenArmed) {
  // ScopedSpan is the production emission path: one flag load decides.
  const bool telemetry_was_on = Enabled();
  SetEnabled(false);
  SetCollectionEnabled(false);
  { OTIF_SPAN("timeline_test/disarmed"); }
  EXPECT_TRUE(SnapshotEvents().empty());

  SetCollectionEnabled(true);
  { OTIF_SPAN("timeline_test/armed"); }
  SetCollectionEnabled(false);
  SetEnabled(telemetry_was_on);

  const std::vector<Event> events = SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "timeline_test/armed");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
}

TEST_F(TraceTimelineTest, ScopedContextNestsAndRestores) {
  EXPECT_EQ(CurrentContext().clip, -1);
  {
    ScopedContext outer({.clip = 3});
    EXPECT_EQ(CurrentContext().clip, 3);
    {
      ScopedContext inner({.clip = 9});
      EXPECT_EQ(CurrentContext().clip, 9);
    }
    EXPECT_EQ(CurrentContext().clip, 3);
  }
  EXPECT_EQ(CurrentContext().clip, -1);
}

TEST_F(TraceTimelineTest, WraparoundKeepsTheMostRecentEventsInOrder) {
  // Capacity applies to rings created after the call, so emit from a fresh
  // thread: 20 one-event "clips" through an 8-slot ring must retain exactly
  // the last 8, in emission order.
  SetBufferCapacity(8);
  ASSERT_EQ(BufferCapacity(), 8u);
  SetCollectionEnabled(true);
  SpanSite* site = TestSite("timeline_test/wraparound");
  std::thread producer([&] {
    for (int64_t i = 0; i < 20; ++i) {
      ScopedContext ctx({.clip = i});
      EmitBegin(site);
    }
  });
  producer.join();
  SetCollectionEnabled(false);

  const std::vector<Event> events = SnapshotEvents();
  ASSERT_EQ(events.size(), 8u);
  for (size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].clip, static_cast<int64_t>(12 + k));
    if (k > 0) {
      EXPECT_LE(events[k - 1].ts_ns, events[k].ts_ns);
    }
  }
}

TEST_F(TraceTimelineTest, ContextPropagatesAcrossThreadPoolTasks) {
  SetCollectionEnabled(true);
  SpanSite* site = TestSite("timeline_test/pool_task");
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> participants;
  {
    // Submitter's context must reach every task, whichever thread runs it.
    ScopedContext ctx({.clip = 42});
    pool.ParallelFor(16, [&](int64_t) {
      {
        std::lock_guard<std::mutex> lock(mu);
        participants.insert(std::this_thread::get_id());
      }
      // Hold each task until a second thread has joined the batch so the
      // events provably span more than one ring.
      for (int spin = 0; spin < 200000; ++spin) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (participants.size() >= 2) break;
        }
        std::this_thread::yield();
      }
      EmitBegin(site);
      EmitEnd(site);
    });
  }
  SetCollectionEnabled(false);

  EXPECT_GE(participants.size(), 2u);
  std::set<uint64_t> tids;
  int matched = 0;
  for (const Event& event : SnapshotEvents()) {
    if (event.name != "timeline_test/pool_task") continue;
    ++matched;
    EXPECT_EQ(event.clip, 42);
    tids.insert(event.tid);
  }
  EXPECT_EQ(matched, 32);
  EXPECT_GE(tids.size(), 2u);
  // The pool must restore each thread's own context afterwards.
  EXPECT_EQ(CurrentContext().clip, -1);
}

TEST_F(TraceTimelineTest, ChromeTraceJsonShape) {
  std::vector<Event> events(2);
  events[0] = {"stage/detect", 1500, 3, 11, 'B'};
  events[1] = {"stage/detect", 4500, 3, 11, 'E'};
  const std::string json = ToChromeTraceJson(events);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"stage/detect\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"clip\": 11}"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST_F(TraceTimelineTest, ConcurrentProducersAndSnapshotsStayUntorn) {
  // 4 producers each lapping a small ring many times while a reader
  // snapshots continuously: every surfaced record must be internally
  // consistent (valid phase, a known site name, attributed clip). TSan
  // (tools/check.sh) verifies the protocol is race-free; this asserts the
  // seqlock never surfaces a torn record.
  SetBufferCapacity(64);
  SetCollectionEnabled(true);
  SpanSite* site_a = TestSite("timeline_test/producer_a");
  SpanSite* site_b = TestSite("timeline_test/producer_b");
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      ScopedContext ctx({.clip = t});
      for (int i = 0; i < 20000; ++i) {
        EmitBegin(t % 2 == 0 ? site_a : site_b);
        EmitEnd(t % 2 == 0 ? site_a : site_b);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Event& event : SnapshotEvents()) {
        ASSERT_TRUE(event.phase == 'B' || event.phase == 'E');
        if (event.name != "timeline_test/producer_a" &&
            event.name != "timeline_test/producer_b") {
          continue;  // Residue from earlier tests on reused rings.
        }
        ASSERT_GE(event.clip, 0);
        ASSERT_LT(event.clip, 4);
        ASSERT_GE(event.ts_ns, 0);
      }
    }
  });
  for (std::thread& p : producers) p.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  SetCollectionEnabled(false);
}

}  // namespace
}  // namespace otif::telemetry::timeline
