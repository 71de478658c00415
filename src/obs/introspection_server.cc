#include "obs/introspection_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "mem/buffer_pool.h"
#include "obs/profiler.h"
#include "obs/prometheus.h"
#include "obs/run_progress.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::obs {
namespace {

/// Completed spans /tracez returns (newest first) without ?n=.
constexpr int kTracezDefaultSpans = 200;

/// One completed span paired up from the timeline rings.
struct CompletedSpan {
  std::string name;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t tid = 0;
  int64_t clip = -1;
};

/// Pairs begin/end events (per thread, LIFO nesting — the Chrome trace
/// model the rings follow) into completed spans, newest-ending first,
/// capped at `limit`. Unmatched begins (still running or end overwritten)
/// are dropped.
std::vector<CompletedSpan> PairCompletedSpans(
    const std::vector<telemetry::timeline::Event>& events, int limit) {
  std::map<uint64_t, std::vector<const telemetry::timeline::Event*>> stacks;
  std::vector<CompletedSpan> done;
  for (const telemetry::timeline::Event& e : events) {
    std::vector<const telemetry::timeline::Event*>& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(&e);
      continue;
    }
    // End event: unwind to the matching begin (a ring that overwrote some
    // begins can leave strays below; mismatches discard the stray begin).
    while (!stack.empty() && stack.back()->name != e.name) stack.pop_back();
    if (stack.empty()) continue;
    const telemetry::timeline::Event* begin = stack.back();
    stack.pop_back();
    CompletedSpan span;
    span.name = e.name;
    span.start_ns = begin->ts_ns;
    span.dur_ns = e.ts_ns - begin->ts_ns;
    span.tid = e.tid;
    span.clip = begin->clip;
    done.push_back(std::move(span));
  }
  // Events arrive sorted by timestamp, so `done` is ordered by end time;
  // newest first, capped.
  std::vector<CompletedSpan> out;
  const size_t keep =
      limit > 0 ? std::min(done.size(), static_cast<size_t>(limit))
                : done.size();
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    out.push_back(std::move(done[done.size() - 1 - i]));
  }
  return out;
}

std::string RenderStatusz() {
  // Snapshot everything first (each snapshot takes only the brief locks
  // its registry already uses), then serialize lock-free.
  const ProgressSnapshot progress = RunProgress::Global().Snapshot();
  const mem::BufferPool::Stats pool = mem::BufferPool::Global().GetStats();

  JsonWriter w;
  w.BeginObject();
  w.Key("phase").Value(progress.phase);
  w.Key("process_uptime_seconds").Value(progress.process_uptime_seconds);
  w.Key("run").BeginObject();
  w.Key("label").Value(progress.run_label);
  w.Key("seq").Value(progress.run_seq);
  w.Key("in_flight").Value(progress.run_in_flight);
  w.Key("uptime_seconds").Value(progress.run_uptime_seconds);
  w.Key("seconds_since_last_commit").Value(progress.seconds_since_last_commit);
  w.Key("frames_committed").Value(progress.frames_committed);
  w.Key("frames_total").Value(progress.frames_total);
  w.Key("clips_done").Value(progress.clips_done);
  w.Key("clips").BeginArray();
  for (const ClipProgressSample& clip : progress.clips) {
    w.BeginObject();
    w.Key("clip").Value(clip.clip);
    w.Key("committed").Value(clip.committed);
    w.Key("total").Value(clip.total);
    w.EndObject();
  }
  w.EndArray();
  // Clips fault recovery quarantined this run; empty in healthy runs.
  w.Key("quarantined").BeginArray();
  for (const QuarantineSample& q : progress.quarantined) {
    w.BeginObject();
    w.Key("clip").Value(q.clip);
    w.Key("reason").Value(q.reason);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("pool").BeginObject();
  w.Key("hits").Value(pool.hits);
  w.Key("misses").Value(pool.misses);
  w.Key("hit_rate").Value(pool.hit_rate());
  w.Key("bytes_in_flight").Value(pool.bytes_in_flight);
  w.Key("bytes_retained").Value(pool.bytes_retained);
  w.Key("arena_bytes_reserved").Value(pool.arena_bytes_reserved);
  w.EndObject();
  w.EndObject();
  return std::move(w).TakeString();
}

std::string RenderTracez(int limit) {
  const bool armed = telemetry::timeline::CollectionEnabled();
  std::vector<CompletedSpan> spans;
  if (armed) {
    spans = PairCompletedSpans(telemetry::timeline::SnapshotEvents(), limit);
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("timeline_armed").Value(armed);
  w.Key("span_count").Value(static_cast<int64_t>(spans.size()));
  w.Key("spans").BeginArray();
  for (const CompletedSpan& s : spans) {
    w.BeginObject();
    w.Key("name").Value(s.name);
    w.Key("start_ns").Value(s.start_ns);
    w.Key("dur_ns").Value(s.dur_ns);
    w.Key("tid").Value(static_cast<uint64_t>(s.tid));
    w.Key("clip").Value(s.clip);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).TakeString();
}

const char kIndexBody[] =
    "otif introspection endpoints:\n"
    "  /metrics   Prometheus text exposition of the telemetry registry\n"
    "  /healthz   liveness + commit-stall watchdog\n"
    "  /statusz   JSON run status (per-clip progress, pool)\n"
    "  /tracez    last completed spans from the timeline rings (?n=<1..10000>)\n"
    "  /profilez  sampling CPU profile (?seconds=<0.01..60>, "
    "?fmt=collapsed|json)\n";

/// Strict decimal integer parse: the whole string must be consumed and fit
/// in int64_t. atoi-style silent prefixes would turn "5xyz" into 5, which a
/// query validator must reject.
bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(value);
  return true;
}

/// Strict finite double parse (whole string consumed).
bool ParseFiniteDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (!(value == value) || value > 1e300 || value < -1e300) return false;
  *out = value;
  return true;
}

/// Bounded-cardinality endpoint label for the request counters. Anything
/// outside the known path set (404s, typos) folds into "other" so a
/// scanning client cannot mint unbounded metric names.
const char* EndpointLabel(const std::string& path_with_query) {
  std::string_view path(path_with_query);
  const size_t query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);
  if (path == "/metrics") return "metrics";
  if (path == "/statusz") return "statusz";
  if (path == "/healthz") return "healthz";
  if (path == "/tracez") return "tracez";
  if (path == "/profilez") return "profilez";
  if (path == "/" || path.empty()) return "index";
  return "other";
}

/// HTTP method tokens are uppercase letters; anything else on the front of
/// the request line is noise, not a method we should answer 405 for.
bool IsMethodToken(const std::string& token) {
  if (token.empty()) return false;
  for (const char c : token) {
    if (c < 'A' || c > 'Z') return false;
  }
  return true;
}

IntrospectionServer::Response BadQuery(const std::string& message) {
  return {400, "text/plain", message + "\n"};
}

}  // namespace

bool ParseQueryString(std::string_view query,
                      std::map<std::string, std::string>* out) {
  out->clear();
  if (query.empty()) return true;
  size_t pos = 0;
  for (;;) {
    const size_t amp = query.find('&', pos);
    const size_t end = amp == std::string_view::npos ? query.size() : amp;
    const std::string_view segment = query.substr(pos, end - pos);
    if (segment.empty()) return false;  // "&&", leading or trailing '&'.
    const size_t eq = segment.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    const bool inserted =
        out->emplace(std::string(segment.substr(0, eq)),
                     std::string(segment.substr(eq + 1)))
            .second;
    if (!inserted) return false;  // Repeated key: ambiguous, reject.
    if (amp == std::string_view::npos) return true;
    pos = amp + 1;
  }
}

IntrospectionServer::IntrospectionServer(const Options& options)
    : options_(options) {}

StatusOr<std::unique_ptr<IntrospectionServer>> IntrospectionServer::Start(
    const Options& options) {
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument(StrFormat(
        "introspection port must be in [0, 65535], got %d", options.port));
  }
  std::unique_ptr<IntrospectionServer> server(
      new IntrospectionServer(options));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IoError(
        StrFormat("bind(127.0.0.1:%d): %s", options.port,
                  std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) != 0) {
    const Status status =
        Status::IoError(StrFormat("listen(): %s", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Status status = Status::IoError(
        StrFormat("getsockname(): %s", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->thread_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

IntrospectionServer::~IntrospectionServer() {
  // shutdown() wakes the blocked accept(); the loop then sees the error and
  // exits. Close only after the join so the fd cannot be reused while the
  // accept thread still references it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
}

void IntrospectionServer::AcceptLoop() {
  for (;;) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // shutdown() from the destructor (or a fatal socket error).
    }
    ServeConnection(conn);
    ::close(conn);
  }
}

void IntrospectionServer::ServeConnection(int fd) const {
  // Read until the end of the request head (we never use a body). Cap the
  // head so a misbehaving client cannot make the server buffer unboundedly.
  std::string head;
  char buf[1024];
  while (head.size() < kMaxHeadBytes &&
         head.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
  }
  const Response response = HandleRequest(head);
  const char* reason = response.status == 200   ? "OK"
                       : response.status == 400 ? "Bad Request"
                       : response.status == 404 ? "Not Found"
                       : response.status == 405 ? "Method Not Allowed"
                       : response.status == 503 ? "Service Unavailable"
                                                : "Error";
  std::string out = StrFormat(
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.status, reason, response.content_type.c_str(),
      response.body.size());
  if (head.rfind("HEAD ", 0) != 0) out += response.body;
  size_t written = 0;
  while (written < out.size()) {
    const ssize_t n = ::write(fd, out.data() + written, out.size() - written);
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
}

IntrospectionServer::Response IntrospectionServer::HandleRequest(
    const std::string& head) const {
  const auto started = std::chrono::steady_clock::now();
  const size_t line_end = head.find("\r\n");
  Response response;
  const char* endpoint = "other";
  if (line_end == std::string::npos && head.size() >= kMaxHeadBytes) {
    response = {400, "text/plain", "request line too large\n"};
  } else {
    const std::vector<std::string> parts = StrSplit(
        line_end == std::string::npos ? head : head.substr(0, line_end), ' ');
    if (parts.size() < 2 || !IsMethodToken(parts[0])) {
      response = {400, "text/plain", "bad request\n"};
    } else if (parts[0] != "GET" && parts[0] != "HEAD") {
      response = {405, "text/plain", "only GET and HEAD are supported\n"};
    } else {
      endpoint = EndpointLabel(parts[1]);
      response = Handle(parts[1]);
    }
  }
  // Self-instrumentation: the server shows up in its own /metrics like any
  // other subsystem. Bounded name cardinality: EndpointLabel folds unknown
  // paths into "other" and the status set is the fixed table above.
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  registry.GetHistogram("obs.scrape_seconds")->Record(elapsed);
  registry
      .GetCounter(
          StrFormat("obs.http.requests.%s.%d", endpoint, response.status))
      ->Add(1);
  return response;
}

IntrospectionServer::Response IntrospectionServer::Handle(
    const std::string& raw_path) const {
  std::string path = raw_path;
  std::map<std::string, std::string> params;
  const size_t query = path.find('?');
  if (query != std::string::npos) {
    if (!ParseQueryString(std::string_view(path).substr(query + 1), &params)) {
      return BadQuery("malformed query string");
    }
    path.resize(query);
  }
  if (path == "/tracez") {
    int limit = kTracezDefaultSpans;
    if (const auto it = params.find("n"); it != params.end()) {
      int64_t n = 0;
      if (!ParseInt64(it->second, &n) || n < 1 || n > 10000) {
        return BadQuery("tracez: n must be an integer in [1, 10000]");
      }
      limit = static_cast<int>(n);
      params.erase(it);
    }
    if (!params.empty()) {
      return BadQuery(
          StrFormat("tracez: unknown parameter \"%s\"",
                    params.begin()->first.c_str()));
    }
    return {200, "application/json", RenderTracez(limit)};
  }
  if (path == "/profilez") {
    double seconds = 2.0;
    bool as_json = false;
    if (const auto it = params.find("seconds"); it != params.end()) {
      if (!ParseFiniteDouble(it->second, &seconds) || seconds < 0.01 ||
          seconds > 60.0) {
        return BadQuery("profilez: seconds must be a number in [0.01, 60]");
      }
      params.erase(it);
    }
    if (const auto it = params.find("fmt"); it != params.end()) {
      if (it->second == "json") {
        as_json = true;
      } else if (it->second != "collapsed") {
        return BadQuery("profilez: fmt must be \"collapsed\" or \"json\"");
      }
      params.erase(it);
    }
    if (!params.empty()) {
      return BadQuery(
          StrFormat("profilez: unknown parameter \"%s\"",
                    params.begin()->first.c_str()));
    }
    // Deliberately blocks this (single-threaded) serving loop for the
    // window: one profile at a time is the contract, and a second scraper
    // queuing on accept() is better than two interleaved windows. A
    // concurrent whole-run profile (OTIF_PROFILE) makes Start fail, which
    // maps to 503 here.
    StatusOr<Profile> profile = CpuProfiler::Global().ProfileFor(seconds);
    if (!profile.ok()) {
      return {503, "text/plain",
              StrFormat("profiler unavailable: %s\n",
                        profile.status().ToString().c_str())};
    }
    if (as_json) {
      return {200, "application/json", ProfileToJson(profile.value())};
    }
    return {200, "text/plain",
            ToCollapsed(profile.value(), /*with_context=*/true)};
  }
  if (!params.empty()) {
    return BadQuery(StrFormat("%s takes no query parameters",
                              path.empty() ? "/" : path.c_str()));
  }
  if (path == "/metrics") {
    // Refresh the mem.* mirror gauges so a scrape sees current pool state
    // (they are otherwise only published at report time).
    mem::BufferPool::Global().PublishTelemetry();
    return {200, "text/plain; version=0.0.4",
            ToPrometheusText(telemetry::CaptureSnapshot())};
  }
  if (path == "/statusz") {
    return {200, "application/json", RenderStatusz()};
  }
  if (path == "/healthz") {
    const double idle = RunProgress::Global().SecondsSinceRunAdvanced();
    const bool stalled = idle >= 0.0 && idle > options_.stall_seconds;
    JsonWriter w;
    w.BeginObject();
    w.Key("status").Value(stalled  ? "stalled"
                          : idle < 0 ? "idle"
                                     : "ok");
    w.Key("seconds_since_advance").Value(idle);
    w.Key("stall_window_seconds").Value(options_.stall_seconds);
    w.EndObject();
    return {stalled ? 503 : 200, "application/json",
            std::move(w).TakeString()};
  }
  if (path == "/" || path.empty()) {
    return {200, "text/plain", kIndexBody};
  }
  return {404, "text/plain", std::string("not found\n\n") + kIndexBody};
}

IntrospectionServer* InitIntrospectionFromEnv() {
  static IntrospectionServer* server = []() -> IntrospectionServer* {
    // Whole-run profiling (OTIF_PROFILE=<path>) rides the same init hook
    // so every entry point that arms introspection also honors it.
    InitProfilerFromEnv();
    const char* port_env = std::getenv("OTIF_METRICS_PORT");
    if (port_env == nullptr || *port_env == '\0') return nullptr;
    IntrospectionServer::Options options;
    int64_t port = 0;
    if (!ParseInt64(port_env, &port) || port < 0 || port > 65535) {
      OTIF_LOG(kWarning) << "OTIF_METRICS_PORT=\"" << port_env
                         << "\" is not a port in [0, 65535]; introspection "
                            "server off";
      return nullptr;
    }
    options.port = static_cast<int>(port);
    if (const char* stall = std::getenv("OTIF_STALL_SEC")) {
      double window = 0.0;
      if (ParseFiniteDouble(stall, &window) && window > 0.0) {
        options.stall_seconds = window;
      } else {
        OTIF_LOG(kWarning) << "OTIF_STALL_SEC=\"" << stall
                           << "\" is not a positive number; using "
                           << options.stall_seconds << " s";
      }
    }
    SetProgressEnabled(true);
    // Arm the timeline rings so /tracez has spans to show. Harmless to
    // outputs (the timeline never affects results) and only reached when
    // the operator asked for live introspection.
    telemetry::timeline::SetCollectionEnabled(true);
    StatusOr<std::unique_ptr<IntrospectionServer>> started =
        IntrospectionServer::Start(options);
    if (!started.ok()) {
      OTIF_LOG(kError) << "introspection server disabled: "
                       << started.status().ToString();
      return nullptr;
    }
    IntrospectionServer* raw = started.value().release();  // Leaked.
    OTIF_LOG(kInfo) << "introspection server listening on 127.0.0.1:"
                    << raw->port();
    if (const char* port_file = std::getenv("OTIF_METRICS_PORT_FILE")) {
      std::ofstream out(port_file, std::ios::trunc);
      out << raw->port() << "\n";
      if (!out.good()) {
        OTIF_LOG(kWarning) << "failed to write OTIF_METRICS_PORT_FILE="
                           << port_file;
      }
    }
    return raw;
  }();
  return server;
}

}  // namespace otif::obs
