// Introspection server endpoint tests: handler rendering for all three
// endpoints, real-socket HTTP round trips (including a client that
// connects and sends nothing), concurrent scrapes racing telemetry writers
// (the TSan target), and the bit-identity contract — a config evaluation
// with the server up and progress armed must match the server-off
// evaluation exactly.

#include "obs/introspection_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
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

namespace otif::obs {
namespace {

/// Arms progress recording for a test body and restores the previous state
/// (and a clean "idle" phase) on exit.
class ScopedProgress {
 public:
  ScopedProgress() : previous_(ProgressEnabled()) { SetProgressEnabled(true); }
  ~ScopedProgress() {
    RunProgress::Global().SetPhase("idle");
    SetProgressEnabled(previous_);
  }

 private:
  const bool previous_;
};

std::unique_ptr<IntrospectionServer> StartOrDie() {
  StatusOr<std::unique_ptr<IntrospectionServer>> server =
      IntrospectionServer::Start(0);
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
    const StatusOr<std::unique_ptr<IntrospectionServer>> server =
        IntrospectionServer::Start(port);
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
  const std::shared_ptr<RunProgress::Run> run =
      RunProgress::Global().BeginRun("statusz_unit", {5, 5});
  run->CommitFrames(0, 2);
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/statusz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(r.body.find("\"phase\""), std::string::npos);
  EXPECT_NE(r.body.find("statusz_unit"), std::string::npos);
  EXPECT_NE(r.body.find("\"committed\""), std::string::npos);
  EXPECT_NE(r.body.find("\"quarantined\""), std::string::npos);
  run->End();
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
  EXPECT_EQ(server->Handle("/statusz?verbose=1").status, 400);
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
  EXPECT_EQ(server->HandleRequest("GET /statusz HTTP/1.1\r\n\r\n").status,
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

/// Opens a loopback TCP connection to `port`; -1 on failure.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `path` as a GET on `fd` and reads the response until the server
/// closes the connection (or the socket's receive timeout expires).
std::string Get(int fd, const std::string& path) {
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    return "";
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  return response;
}

TEST(IntrospectionServerTest, RealSocketRoundTrip) {
  auto server = StartOrDie();
  const int fd = ConnectLoopback(server->port());
  ASSERT_GE(fd, 0);
  const std::string response = Get(fd, "/statusz");
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n"), std::string::npos);
}

TEST(IntrospectionServerTest, IdleClientDoesNotBlockLaterScrapes) {
  // The server serves one connection at a time: a client that connects and
  // sends nothing must time out instead of holding every later scrape.
  auto server = StartOrDie();
  const int idle = ConnectLoopback(server->port());
  ASSERT_GE(idle, 0);
  const int fd = ConnectLoopback(server->port());
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  const std::string response = Get(fd, "/statusz");
  ::close(fd);
  ::close(idle);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
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
  const std::shared_ptr<RunProgress::Run> run =
      RunProgress::Global().BeginRun("race_unit", {1000, 1000});

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Add(1);
        hist->Record((i % 3) * 0.4);
        run->CommitFrames(t, 1);
        ++i;
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/statusz"};
      for (int i = 0; i < 50; ++i) {
        const IntrospectionServer::Response r =
            server->Handle(paths[(t + i) % 2]);
        EXPECT_EQ(r.status, 200);
        EXPECT_FALSE(r.body.empty());
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  run->End();
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
