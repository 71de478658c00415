#ifndef OTIF_OBS_INTROSPECTION_SERVER_H_
#define OTIF_OBS_INTROSPECTION_SERVER_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "util/status.h"

namespace otif::obs {

/// Parses an HTTP query string ("a=1&fmt=json") into `out`. Returns false
/// on malformed input: an empty segment, a segment without '=', an empty
/// key, or a repeated key. No percent-decoding — every parameter the
/// endpoints accept is a plain number or identifier, and a stray '%' is
/// simply part of the (then unrecognized) value. An empty query parses to
/// an empty map.
bool ParseQueryString(std::string_view query,
                      std::map<std::string, std::string>* out);

/// Live introspection over in-flight runs: a dependency-free embedded
/// HTTP/1.1 server (POSIX sockets, blocking accept loop on its own thread,
/// loopback only) serving four read-only endpoints:
///
///   /metrics  Prometheus text exposition of the whole telemetry registry
///             (counters, gauges, histograms with cumulative buckets and
///             _sum/_count, spans as summaries; see prometheus.h).
///   /healthz  Liveness + stall watchdog: 200 while the current run has
///             committed frames within `stall_seconds` (or no run is in
///             flight), 503 once it has not. JSON body with the verdict.
///   /statusz  JSON run status (shared json_writer): phase, per-clip
///             frames committed/total, quarantined clips, buffer-pool
///             bytes, uptimes.
///   /tracez   Last-N completed spans paired up from the seqlock timeline
///             rings (requires timeline collection to be armed; reports
///             timeline_armed so scrapers can tell "off" from "idle").
///             ?n=<1..10000> overrides the span limit (default 200).
///   /profilez On-demand sampling CPU profile (profiler.h): starts a
///             windowed profile, blocks the (single-threaded) serving loop
///             for the window, and returns the result.
///             ?seconds=<0.01..60> window (default 2),
///             ?fmt=collapsed|json output shape (default collapsed —
///             pipe straight into flamegraph.pl). 503 when another window
///             is already running or the profiler is unavailable
///             (sanitizer builds).
///
/// Query parameters go through ParseQueryString; malformed strings and
/// out-of-range values get a 400 with a diagnostic body.
///
/// The server also instruments itself: obs.http.requests.<endpoint>.<code>
/// counters and an obs.scrape_seconds histogram, visible in /metrics like
/// every other registry metric.
///
/// Every endpoint (except the deliberately blocking /profilez) snapshots
/// shared state first and serializes outside any lock, so a scrape never
/// blocks worker threads beyond the snapshot mutexes the registries
/// already use. Nothing here writes to pipeline state: runs produce
/// bit-identical outputs with the server on or off.
class IntrospectionServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1, in [0, 65535]; 0 picks an ephemeral
    /// port (read it back via port()).
    int port = 0;
    /// /healthz reports stalled when the in-flight run has not committed
    /// for this long.
    double stall_seconds = 30.0;
  };

  /// Binds, listens, and starts the accept thread. Fails with
  /// InvalidArgument, before opening any socket, when `port` is outside
  /// [0, 65535], and with IoError when the port is taken or sockets are
  /// unavailable.
  static StatusOr<std::unique_ptr<IntrospectionServer>> Start(
      const Options& options);

  ~IntrospectionServer();  // Stops the accept loop and joins the thread.

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  /// The bound port (the ephemeral pick when Options::port was 0).
  int port() const { return port_; }

  /// Request heads larger than this without a complete request line are
  /// rejected with a 400 instead of buffered further.
  static constexpr size_t kMaxHeadBytes = 8192;

  /// One rendered HTTP response body. Exposed so tests can exercise every
  /// endpoint without sockets.
  struct Response {
    int status = 200;                        ///< HTTP status code.
    std::string content_type = "text/plain"; ///< Content-Type header value.
    std::string body;
  };

  /// Renders the endpoint at `path`. The query string (everything after
  /// '?') is parsed with ParseQueryString; a malformed query, an unknown
  /// parameter, or an out-of-range value gets a 400. Unknown paths get a
  /// 404 index. Thread-safe; read-only except /profilez, which runs a
  /// blocking profiling window.
  Response Handle(const std::string& path) const;

  /// Full request path: parses the HTTP head read off a connection —
  /// 400 when the request line never terminates within kMaxHeadBytes or
  /// the line is malformed (fewer than two tokens, or a method token that
  /// is not all uppercase letters), 405 for a well-formed method other
  /// than GET/HEAD — then dispatches to Handle(). Also the
  /// instrumentation point: bumps obs.http.requests.<endpoint>.<status>
  /// and records obs.scrape_seconds. Exposed so tests can drive the HTTP
  /// edge cases without sockets.
  Response HandleRequest(const std::string& head) const;

 private:
  explicit IntrospectionServer(const Options& options);

  void AcceptLoop();
  void ServeConnection(int fd) const;

  const Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

/// Applies the introspection environment configuration once per process
/// (idempotent; later calls return the first outcome):
///
///  - OTIF_METRICS_PORT: when set, arms run-progress recording and timeline
///    collection, starts a process-lifetime IntrospectionServer on that
///    port (0 = ephemeral), and logs the bound address. Unset leaves the
///    whole subsystem off (cost: nothing beyond the flag word); so does a
///    value that is not a decimal integer in [0, 65535], with a warning
///    naming it.
///  - OTIF_METRICS_PORT_FILE: when set alongside OTIF_METRICS_PORT, the
///    bound port is also written (as one decimal line) to this file so
///    scripts can find an ephemeral port.
///  - OTIF_STALL_SEC: /healthz watchdog window in seconds (default 30). A
///    value that is not a positive number keeps the default, with a
///    warning naming it.
///  - OTIF_PROFILE=<path>: whole-run CPU profile, dumped to <path> at exit
///    (delegated to InitProfilerFromEnv; see profiler.h). Works with or
///    without the HTTP server.
///
/// Returns the running server (nullptr when OTIF_METRICS_PORT is unset or
/// the bind failed — the failure is logged, never fatal: introspection must
/// not take down a run).
IntrospectionServer* InitIntrospectionFromEnv();

}  // namespace otif::obs

#endif  // OTIF_OBS_INTROSPECTION_SERVER_H_
