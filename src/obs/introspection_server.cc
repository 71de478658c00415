#include "obs/introspection_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "obs/profiler.h"
#include "obs/prometheus.h"
#include "obs/run_progress.h"
#include "util/fault_injection.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::obs {
namespace {

std::string RenderStatusz() {
  // Snapshot first (the snapshot takes only the brief lock the progress
  // registry already uses), then serialize lock-free.
  const ProgressSnapshot progress = RunProgress::Global().Snapshot();

  JsonWriter w;
  w.BeginObject();
  w.Key("phase").Value(progress.phase);
  w.Key("process_uptime_seconds").Value(progress.process_uptime_seconds);
  w.Key("run").BeginObject();
  w.Key("label").Value(progress.run_label);
  w.Key("seq").Value(progress.run_seq);
  w.Key("in_flight").Value(progress.run_in_flight);
  w.Key("uptime_seconds").Value(progress.run_uptime_seconds);
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
  w.EndObject();
  return std::move(w).TakeString();
}

const char kIndexBody[] =
    "otif introspection endpoints:\n"
    "  /metrics   Prometheus text exposition of the telemetry registry\n"
    "  /statusz   JSON run status (per-clip progress, quarantined clips)\n"
    "  /profilez  sampling CPU profile (?seconds=<0.01..60>, "
    "?fmt=collapsed|json)\n";

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

StatusOr<std::unique_ptr<IntrospectionServer>> IntrospectionServer::Start(
    int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(StrFormat(
        "introspection port must be in [0, 65535], got %d", port));
  }
  std::unique_ptr<IntrospectionServer> server(new IntrospectionServer());
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
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IoError(
        StrFormat("bind(127.0.0.1:%d): %s", port, std::strerror(errno)));
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
  // Connections are served one at a time, so bound how long one client can
  // hold the loop: a read or write that waits kConnectionTimeoutMs fails
  // instead of blocking every later scrape.
  timeval timeout{};
  timeout.tv_sec = kConnectionTimeoutMs / 1000;
  timeout.tv_usec = (kConnectionTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  // Read until the end of the request head (we never use a body). Cap the
  // head so a misbehaving client cannot make the server buffer unboundedly.
  std::string head;
  bool timed_out = false;
  char buf[1024];
  while (head.size() < kMaxHeadBytes &&
         head.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      timed_out = true;
      break;
    }
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
  }
  const Response response =
      timed_out ? Response{400, "text/plain", "request head incomplete\n"}
                : HandleRequest(head);
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
  const size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos && head.size() >= kMaxHeadBytes) {
    return {400, "text/plain", "request line too large\n"};
  }
  const std::vector<std::string> parts = StrSplit(
      line_end == std::string::npos ? head : head.substr(0, line_end), ' ');
  if (parts.size() < 2 || !IsMethodToken(parts[0])) {
    return {400, "text/plain", "bad request\n"};
  }
  if (parts[0] != "GET" && parts[0] != "HEAD") {
    return {405, "text/plain", "only GET and HEAD are supported\n"};
  }
  return Handle(parts[1]);
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
  if (path == "/profilez") {
    double seconds = 2.0;
    bool as_json = false;
    if (const auto it = params.find("seconds"); it != params.end()) {
      if (!ParseDouble(it->second, &seconds) || seconds < 0.01 ||
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
    return {200, "text/plain; version=0.0.4",
            ToPrometheusText(telemetry::CaptureSnapshot())};
  }
  if (path == "/statusz") {
    return {200, "application/json", RenderStatusz()};
  }
  if (path == "/" || path.empty()) {
    return {200, "text/plain", kIndexBody};
  }
  return {404, "text/plain", std::string("not found\n\n") + kIndexBody};
}

void InitFromEnv() {
  InitLogLevelFromEnv();
  telemetry::timeline::InitFromEnv();
  fault::InitFaultsFromEnv();
  static const bool initialized = [] {
    InitProfilerFromEnv();
    const char* port_env = std::getenv("OTIF_METRICS_PORT");
    if (port_env == nullptr || *port_env == '\0') return true;
    int64_t port = 0;
    if (!ParseInt64(port_env, &port) || port < 0 || port > 65535) {
      OTIF_LOG(kWarning) << "OTIF_METRICS_PORT=\"" << port_env
                         << "\" is not a port in [0, 65535]; introspection "
                            "server off";
      return true;
    }
    SetProgressEnabled(true);
    StatusOr<std::unique_ptr<IntrospectionServer>> started =
        IntrospectionServer::Start(static_cast<int>(port));
    if (!started.ok()) {
      OTIF_LOG(kError) << "introspection server disabled: "
                       << started.status().ToString();
      return true;
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
    return true;
  }();
  (void)initialized;
}

}  // namespace otif::obs
