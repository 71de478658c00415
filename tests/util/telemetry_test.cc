#include "util/telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"
#include "util/trace.h"

namespace otif::telemetry {
namespace {

/// Enables telemetry for a test body and restores the previous state.
class ScopedTelemetryEnabled {
 public:
  explicit ScopedTelemetryEnabled(bool enabled) : previous_(Enabled()) {
    SetEnabled(enabled);
  }
  ~ScopedTelemetryEnabled() { SetEnabled(previous_); }

 private:
  const bool previous_;
};

TEST(TelemetryTest, CounterAddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(TelemetryTest, GaugeSetAndAccumulate) {
  Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(TelemetryTest, HistogramBucketsByUpperBound) {
  Histogram histogram({1.0, 10.0});
  histogram.Record(0.5);   // Bucket 0 (<= 1).
  histogram.Record(1.0);   // Bucket 0 (inclusive bound).
  histogram.Record(5.0);   // Bucket 1.
  histogram.Record(100.0); // Overflow bucket.
  EXPECT_EQ(histogram.bucket_count(0), 2);
  EXPECT_EQ(histogram.bucket_count(1), 1);
  EXPECT_EQ(histogram.bucket_count(2), 1);
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.sum(), 106.5);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.bucket_count(2), 0);
}

TEST(TelemetryTest, RegistryDeduplicatesByName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("dedup.counter");
  Counter* b = registry.GetCounter("dedup.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetGauge("dedup.gauge"),
            static_cast<Gauge*>(nullptr));
  Histogram* h1 = registry.GetHistogram("dedup.histogram", {1.0});
  Histogram* h2 = registry.GetHistogram("dedup.histogram", {2.0, 3.0});
  EXPECT_EQ(h1, h2);  // First registration fixes the bounds.
  EXPECT_EQ(h1->bounds().size(), 1u);
}

TEST(TelemetryTest, SnapshotReflectsValuesAndResetZeroes) {
  MetricsRegistry registry;
  registry.GetCounter("snap.counter")->Add(7);
  registry.GetGauge("snap.gauge")->Set(1.25);
  registry.GetHistogram("snap.histogram", {1.0})->Record(0.5);

  TelemetrySnapshot snapshot = registry.Snapshot();
  const CounterSample* counter = FindCounter(snapshot, "snap.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 7);
  const GaugeSample* gauge = FindGauge(snapshot, "snap.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, 1.25);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);

  registry.Reset();
  snapshot = registry.Snapshot();
  EXPECT_EQ(FindCounter(snapshot, "snap.counter")->value, 0);
  EXPECT_DOUBLE_EQ(FindGauge(snapshot, "snap.gauge")->value, 0.0);
  EXPECT_EQ(snapshot.histograms[0].count, 0);
}

TEST(TelemetryTest, ConcurrentRegistryUpdatesLoseNothing) {
  // Counters, gauges, and histograms are shared across the pool; N tasks
  // each record once and the totals must be exact.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("mt.counter");
  Gauge* gauge = registry.GetGauge("mt.gauge");
  Histogram* histogram = registry.GetHistogram("mt.histogram", {0.5});
  constexpr int64_t kTasks = 2000;
  ThreadPool pool(4);
  pool.ParallelFor(kTasks, [&](int64_t i) {
    counter->Add(1);
    gauge->Add(0.25);
    histogram->Record(i % 2 == 0 ? 0.25 : 1.0);
  });
  EXPECT_EQ(counter->value(), kTasks);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.25 * kTasks);
  EXPECT_EQ(histogram->count(), kTasks);
  EXPECT_EQ(histogram->bucket_count(0), kTasks / 2);
  EXPECT_EQ(histogram->bucket_count(1), kTasks / 2);
}

TEST(TelemetryTest, ConcurrentRegistrationReturnsOnePointer) {
  MetricsRegistry registry;
  std::vector<Counter*> seen(8, nullptr);
  ThreadPool pool(4);
  pool.ParallelFor(8, [&](int64_t i) {
    seen[static_cast<size_t>(i)] = registry.GetCounter("mt.race");
  });
  for (Counter* c : seen) EXPECT_EQ(c, seen[0]);
}

TEST(TraceTest, SpanAggregatesCountTotalMinMax) {
  ScopedTelemetryEnabled enabled(true);
  SpanSite* site = GetSpan("test/span_aggregate");
  site->Reset();
  site->Record(0.5);
  site->Record(0.1);
  site->Record(0.9);
  const SpanSample sample = site->Sample();
  EXPECT_EQ(sample.count, 3);
  EXPECT_DOUBLE_EQ(sample.total_seconds, 1.5);
  EXPECT_DOUBLE_EQ(sample.min_seconds, 0.1);
  EXPECT_DOUBLE_EQ(sample.max_seconds, 0.9);
  site->Reset();
  EXPECT_EQ(site->Sample().count, 0);
  EXPECT_DOUBLE_EQ(site->Sample().min_seconds, 0.0);
}

TEST(TraceTest, NestedSpansEachRecordInclusiveTime) {
  ScopedTelemetryEnabled enabled(true);
  SpanSite* outer = GetSpan("test/nest_outer");
  SpanSite* inner = GetSpan("test/nest_inner");
  outer->Reset();
  inner->Reset();
  {
    OTIF_SPAN("test/nest_outer");
    for (int i = 0; i < 3; ++i) {
      OTIF_SPAN("test/nest_inner");
    }
  }
  const SpanSample o = outer->Sample();
  const SpanSample i = inner->Sample();
  EXPECT_EQ(o.count, 1);
  EXPECT_EQ(i.count, 3);
  // The outer span encloses every inner span, so its total dominates.
  EXPECT_GE(o.total_seconds, i.total_seconds);
  EXPECT_GE(i.min_seconds, 0.0);
  EXPECT_LE(i.min_seconds, i.max_seconds);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  ScopedTelemetryEnabled enabled(false);
  SpanSite* site = GetSpan("test/disabled_span");
  site->Reset();
  {
    OTIF_SPAN("test/disabled_span");
  }
  EXPECT_EQ(site->Sample().count, 0);
  EXPECT_DOUBLE_EQ(site->Sample().total_seconds, 0.0);
}

TEST(TraceTest, ConcurrentSpanRecordsAreExact) {
  ScopedTelemetryEnabled enabled(true);
  SpanSite* site = GetSpan("test/mt_span");
  site->Reset();
  constexpr int64_t kTasks = 1000;
  ThreadPool pool(4);
  pool.ParallelFor(kTasks, [&](int64_t i) {
    site->Record(static_cast<double>(i % 10 + 1));
  });
  const SpanSample sample = site->Sample();
  EXPECT_EQ(sample.count, kTasks);
  EXPECT_DOUBLE_EQ(sample.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(sample.max_seconds, 10.0);
  EXPECT_DOUBLE_EQ(sample.total_seconds, 5.5 * kTasks);
}

TEST(TraceTest, CaptureSnapshotIncludesSpans) {
  ScopedTelemetryEnabled enabled(true);
  GetSpan("test/capture_span")->Reset();
  {
    OTIF_SPAN("test/capture_span");
  }
  const TelemetrySnapshot snapshot = CaptureSnapshot();
  const SpanSample* span = FindSpan(snapshot, "test/capture_span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1);
}

TEST(PrometheusNameTest, SanitizesSlashesAndDots) {
  EXPECT_EQ(PrometheusMetricName("stage/detect.sim_seconds"),
            "otif_stage_detect_sim_seconds");
  EXPECT_EQ(PrometheusMetricName("pipeline.runs"), "otif_pipeline_runs");
  EXPECT_EQ(PrometheusMetricName("already_legal:name"),
            "otif_already_legal:name");
  EXPECT_EQ(PrometheusMetricName(""), "otif_");
  // Every character outside [a-zA-Z0-9_:] maps to '_'.
  EXPECT_EQ(PrometheusMetricName("a-b c%d"), "otif_a_b_c_d");
}

TEST(PrometheusNameTest, SameNameSameKindIsNotACollision) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("col.same"), registry.GetCounter("col.same"));
}

TEST(PrometheusNameDeathTest, CollidingNamesAreFatal) {
  // "col/a.b" and "col.a/b" both sanitize to otif_col_a_b.
  MetricsRegistry registry;
  registry.GetCounter("col/a.b");
  EXPECT_DEATH(registry.GetGauge("col.a/b"),
               "telemetry metric name collision");
}

TEST(PrometheusNameDeathTest, CrossKindReuseOfOneNameIsFatal) {
  MetricsRegistry registry;
  registry.GetCounter("col.kind");
  EXPECT_DEATH(registry.GetHistogram("col.kind", {1.0}),
               "telemetry metric name collision");
}

TEST(PrometheusNameDeathTest, ExternalNamesJoinTheCollisionTable) {
  MetricsRegistry registry;
  registry.RegisterExternalName("span", "col/ext");
  EXPECT_DEATH(registry.GetCounter("col.ext"),
               "telemetry metric name collision");
}

}  // namespace
}  // namespace otif::telemetry
