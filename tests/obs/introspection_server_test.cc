// Introspection server endpoint tests: handler rendering for all four
// endpoints, the /healthz stall watchdog, one real-socket HTTP round trip,
// concurrent /metrics scrapes racing telemetry writers (the TSan target),
// and the bit-identity contract — a config evaluation with the server up
// and progress armed must match the server-off evaluation exactly.

#include "obs/introspection_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"
#include "models/cost_model.h"
#include "obs/run_progress.h"
#include "sim/dataset.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::obs {
namespace {

/// Arms progress recording for a test body and restores the previous state
/// (and a clean "idle" phase) on exit.
class ScopedProgress {
 public:
  ScopedProgress() : previous_(ProgressEnabled()) { SetProgressEnabled(true); }
  ~ScopedProgress() {
    RunProgress::Global().EndRun();
    RunProgress::Global().SetPhase("idle");
    SetProgressEnabled(previous_);
  }

 private:
  const bool previous_;
};

std::unique_ptr<IntrospectionServer> StartOrDie(
    IntrospectionServer::Options options = {}) {
  StatusOr<std::unique_ptr<IntrospectionServer>> server =
      IntrospectionServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(*server);
}

TEST(IntrospectionServerTest, EphemeralPortIsReported) {
  auto server = StartOrDie();
  EXPECT_GT(server->port(), 0);
  EXPECT_LE(server->port(), 65535);
}

TEST(IntrospectionServerTest, RejectsPortsOutsideRangeWithoutBinding) {
  // Truncated to 16 bits these would bind 4464 and 65535. Socket failures
  // are IoError, so InvalidArgument means no socket was opened.
  for (const int port : {70000, -1}) {
    IntrospectionServer::Options options;
    options.port = port;
    const StatusOr<std::unique_ptr<IntrospectionServer>> server =
        IntrospectionServer::Start(options);
    ASSERT_FALSE(server.ok()) << "port " << port;
    EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument)
        << server.status().ToString();
    EXPECT_NE(server.status().message().find(std::to_string(port)),
              std::string::npos)
        << server.status().ToString();
  }
}

TEST(IntrospectionServerTest, MetricsEndpointServesExposition) {
  telemetry::MetricsRegistry::Global()
      .GetCounter("obs_test.metrics_probe")
      ->Add(1);
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("0.0.4"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE "), std::string::npos);
  EXPECT_NE(r.body.find("otif_obs_test_metrics_probe"), std::string::npos);
}

TEST(IntrospectionServerTest, StatuszReportsRunAndClips) {
  ScopedProgress scoped;
  RunProgress::Global().BeginRun("statusz_unit", {5, 5});
  RunProgress::Global().OnFramesCommitted(0, 2);
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/statusz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(r.body.find("\"phase\""), std::string::npos);
  EXPECT_NE(r.body.find("statusz_unit"), std::string::npos);
  EXPECT_NE(r.body.find("\"committed\""), std::string::npos);
  EXPECT_NE(r.body.find("\"quarantined\""), std::string::npos);
}

TEST(IntrospectionServerTest, HealthzFlipsToStalledAndBack) {
  ScopedProgress scoped;
  IntrospectionServer::Options options;
  options.stall_seconds = 0.02;
  auto server = StartOrDie(options);

  // No run in flight: idle is healthy.
  IntrospectionServer::Response r = server->Handle("/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("idle"), std::string::npos);

  // A run that stops committing trips the watchdog after stall_seconds.
  RunProgress::Global().BeginRun("healthz_unit", {100});
  RunProgress::Global().OnFramesCommitted(0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  r = server->Handle("/healthz");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("stalled"), std::string::npos);

  // A fresh commit revives it; ending the run returns it to idle.
  RunProgress::Global().OnFramesCommitted(0, 1);
  EXPECT_EQ(server->Handle("/healthz").status, 200);
  RunProgress::Global().EndRun();
  r = server->Handle("/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("idle"), std::string::npos);
}

TEST(IntrospectionServerTest, TracezReportsArmedState) {
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/tracez");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(r.body.find("\"timeline_armed\""), std::string::npos);
  EXPECT_NE(r.body.find("\"spans\""), std::string::npos);
}

TEST(IntrospectionServerTest, IndexAndNotFound) {
  auto server = StartOrDie();
  const IntrospectionServer::Response index = server->Handle("/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  EXPECT_NE(index.body.find("/profilez"), std::string::npos);
  EXPECT_EQ(server->Handle("/nope").status, 404);
  // Parameters an endpoint does not define are rejected, not ignored: a
  // scraper typo ("?seconds=2" on the wrong path) should fail loudly.
  EXPECT_EQ(server->Handle("/healthz?verbose=1").status, 400);
}

TEST(IntrospectionServerTest, ParseQueryStringTable) {
  struct Case {
    const char* query;
    bool ok;
  };
  const Case cases[] = {
      {"", true},
      {"a=1", true},
      {"a=1&b=two", true},
      {"a=", true},       // Empty value is fine; empty key is not.
      {"a==b", true},     // Value containing '='.
      {"=1", false},      // Empty key.
      {"a", false},       // No '='.
      {"a=1&", false},    // Trailing separator.
      {"&a=1", false},    // Leading separator.
      {"a=1&&b=2", false},  // Empty segment.
      {"a=1&a=2", false},   // Repeated key.
  };
  for (const Case& c : cases) {
    std::map<std::string, std::string> params;
    EXPECT_EQ(ParseQueryString(c.query, &params), c.ok) << c.query;
  }
  std::map<std::string, std::string> params;
  ASSERT_TRUE(ParseQueryString("n=25&fmt=json", &params));
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params["n"], "25");
  EXPECT_EQ(params["fmt"], "json");
}

TEST(IntrospectionServerTest, TracezLimitParameter) {
  telemetry::timeline::SetCollectionEnabled(true);
  for (int i = 0; i < 5; ++i) {
    OTIF_SPAN("obs_test/tracez_span");
  }
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/tracez?n=2");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"span_count\": 2"), std::string::npos) << r.body;
  // Range and grammar violations are 400s, not silent defaults.
  EXPECT_EQ(server->Handle("/tracez?n=0").status, 400);
  EXPECT_EQ(server->Handle("/tracez?n=10001").status, 400);
  EXPECT_EQ(server->Handle("/tracez?n=abc").status, 400);
  EXPECT_EQ(server->Handle("/tracez?n=5x").status, 400);
  EXPECT_EQ(server->Handle("/tracez?m=5").status, 400);
  EXPECT_EQ(server->Handle("/tracez?n=5&n=6").status, 400);
  telemetry::timeline::SetCollectionEnabled(false);
}

TEST(IntrospectionServerTest, ProfilezValidatesParameters) {
  auto server = StartOrDie();
  EXPECT_EQ(server->Handle("/profilez?seconds=0").status, 400);
  EXPECT_EQ(server->Handle("/profilez?seconds=-1").status, 400);
  EXPECT_EQ(server->Handle("/profilez?seconds=61").status, 400);
  EXPECT_EQ(server->Handle("/profilez?seconds=nan").status, 400);
  EXPECT_EQ(server->Handle("/profilez?seconds=2x").status, 400);
  EXPECT_EQ(server->Handle("/profilez?fmt=svg").status, 400);
  EXPECT_EQ(server->Handle("/profilez?bogus=1").status, 400);
}

TEST(IntrospectionServerTest, ProfilezServesAWindow) {
  auto server = StartOrDie();
  const IntrospectionServer::Response r =
      server->Handle("/profilez?seconds=0.05&fmt=json");
  // Sanitizer builds refuse to profile; the endpoint maps that to 503.
  if (r.status == 503) {
    EXPECT_NE(r.body.find("profiler unavailable"), std::string::npos);
    GTEST_SKIP() << "profiler unavailable: " << r.body;
  }
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(r.body.find("\"hz\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"stacks\""), std::string::npos) << r.body;
  // Collapsed is the default rendering.
  const IntrospectionServer::Response collapsed =
      server->Handle("/profilez?seconds=0.05");
  EXPECT_EQ(collapsed.status, 200);
  EXPECT_NE(collapsed.content_type.find("text/plain"), std::string::npos);
}

TEST(IntrospectionServerTest, RequestLineEdgeCases) {
  auto server = StartOrDie();
  // Well-formed GET dispatches to the endpoint.
  EXPECT_EQ(server->HandleRequest("GET /healthz HTTP/1.1\r\n\r\n").status,
            200);
  EXPECT_EQ(server->HandleRequest("HEAD / HTTP/1.1\r\n\r\n").status, 200);
  // Known methods we do not serve: 405. Garbage methods: 400.
  EXPECT_EQ(server->HandleRequest("POST /metrics HTTP/1.1\r\n\r\n").status,
            405);
  EXPECT_EQ(server->HandleRequest("DELETE / HTTP/1.1\r\n\r\n").status, 405);
  EXPECT_EQ(server->HandleRequest("get / HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(server->HandleRequest("\r\n\r\n").status, 400);
  EXPECT_EQ(server->HandleRequest("GET\r\n\r\n").status, 400);
  EXPECT_EQ(server->HandleRequest("").status, 400);
  // A request line that never terminates within the head cap is rejected,
  // not buffered further.
  const std::string oversized(IntrospectionServer::kMaxHeadBytes, 'A');
  const IntrospectionServer::Response r = server->HandleRequest(oversized);
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("too large"), std::string::npos);
  // An oversized but line-terminated request still routes (long paths 404).
  const std::string long_path =
      "GET /" + std::string(IntrospectionServer::kMaxHeadBytes, 'b') +
      " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(server->HandleRequest(long_path).status, 404);
}

TEST(IntrospectionServerTest, RequestsAreCountedPerEndpointAndStatus) {
  auto server = StartOrDie();
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  const int64_t healthz_before =
      registry.GetCounter("obs.http.requests.healthz.200")->value();
  const int64_t other_before =
      registry.GetCounter("obs.http.requests.other.404")->value();
  const int64_t bad_before =
      registry.GetCounter("obs.http.requests.other.400")->value();
  const auto scrapes_before =
      registry.GetHistogram("obs.scrape_seconds")->count();
  server->HandleRequest("GET /healthz HTTP/1.1\r\n\r\n");
  server->HandleRequest("GET /unknown/path HTTP/1.1\r\n\r\n");
  server->HandleRequest("bogus\r\n\r\n");
  EXPECT_EQ(registry.GetCounter("obs.http.requests.healthz.200")->value(),
            healthz_before + 1);
  EXPECT_EQ(registry.GetCounter("obs.http.requests.other.404")->value(),
            other_before + 1);
  EXPECT_EQ(registry.GetCounter("obs.http.requests.other.400")->value(),
            bad_before + 1);
  EXPECT_EQ(registry.GetHistogram("obs.scrape_seconds")->count(),
            scrapes_before + 3);
  // The self-instrumentation shows up in the exposition like any metric.
  const IntrospectionServer::Response metrics = server->Handle("/metrics");
  EXPECT_NE(metrics.body.find("otif_obs_http_requests_healthz_200"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("otif_obs_scrape_seconds"), std::string::npos);
}

TEST(IntrospectionServerTest, RealSocketRoundTrip) {
  auto server = StartOrDie();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n"), std::string::npos);
}

// The TSan satellite: scrapers hammer every endpoint while writer threads
// mutate the telemetry registry and the progress counters. Correctness here
// is "no data race, no crash, always a well-formed response".
TEST(IntrospectionServerTest, ConcurrentScrapesRaceTelemetryUpdates) {
  ScopedProgress scoped;
  auto server = StartOrDie();
  telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter("obs_test.race_counter");
  telemetry::Histogram* hist = telemetry::MetricsRegistry::Global()
      .GetHistogram("obs_test.race_hist", {0.5, 1.0});
  RunProgress::Global().BeginRun("race_unit", {1000, 1000});

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Add(1);
        hist->Record((i % 3) * 0.4);
        RunProgress::Global().OnFramesCommitted(t, 1);
        ++i;
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/statusz", "/healthz", "/tracez"};
      for (int i = 0; i < 50; ++i) {
        const IntrospectionServer::Response r =
            server->Handle(paths[(t + i) % 4]);
        EXPECT_TRUE(r.status == 200 || r.status == 503);
        EXPECT_FALSE(r.body.empty());
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

/// Exact equality over every observable of a config evaluation: the
/// introspection server must not change a single bit of any run.
void ExpectSameResult(const core::EvalResult& a, const core::EvalResult& b) {
  for (int c = 0; c < models::kNumCostCategories; ++c) {
    const auto cat = static_cast<models::CostCategory>(c);
    EXPECT_EQ(a.clock.Seconds(cat), b.clock.Seconds(cat)) << "category " << c;
  }
  ASSERT_EQ(a.tracks_per_clip.size(), b.tracks_per_clip.size());
  for (size_t clip = 0; clip < a.tracks_per_clip.size(); ++clip) {
    const std::vector<track::Track>& ta = a.tracks_per_clip[clip];
    const std::vector<track::Track>& tb = b.tracks_per_clip[clip];
    ASSERT_EQ(ta.size(), tb.size()) << "clip " << clip;
    for (size_t t = 0; t < ta.size(); ++t) {
      EXPECT_EQ(ta[t].id, tb[t].id);
      ASSERT_EQ(ta[t].detections.size(), tb[t].detections.size());
      for (size_t d = 0; d < ta[t].detections.size(); ++d) {
        const track::Detection& da = ta[t].detections[d];
        const track::Detection& db = tb[t].detections[d];
        EXPECT_EQ(da.frame, db.frame);
        EXPECT_EQ(da.box.cx, db.box.cx);
        EXPECT_EQ(da.box.cy, db.box.cy);
        EXPECT_EQ(da.box.w, db.box.w);
        EXPECT_EQ(da.box.h, db.box.h);
        EXPECT_EQ(da.confidence, db.confidence);
      }
    }
  }
}

TEST(IntrospectionServerTest, RunsAreBitIdenticalWithServerOnOrOff) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < 2; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 1, c), 60));
  }
  core::PipelineConfig config;
  config.tracker = core::TrackerKind::kSort;
  config.frame_batch = 4;
  const core::AccuracyFn no_accuracy =
      [](const std::vector<std::vector<track::Track>>&) { return 0.0; };

  // Reference: server down, progress off.
  SetProgressEnabled(false);
  ThreadPool::SetDefaultThreads(4);
  const core::EvalResult off =
      core::EvaluateConfig(config, nullptr, clips, no_accuracy);

  // Same run with the server scraping and progress armed throughout.
  {
    ScopedProgress scoped;
    auto server = StartOrDie();
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        server->Handle("/metrics");
        server->Handle("/statusz");
        server->Handle("/healthz");
      }
    });
    const core::EvalResult on =
        core::EvaluateConfig(config, nullptr, clips, no_accuracy);
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
    ExpectSameResult(off, on);
  }
  ThreadPool::SetDefaultThreads(1);
}

}  // namespace
}  // namespace otif::obs
