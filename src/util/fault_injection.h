#ifndef OTIF_UTIL_FAULT_INJECTION_H_
#define OTIF_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/telemetry.h"

namespace otif::fault {

/// What an armed site does when its deterministic RNG fires. Sites ignore
/// kinds they cannot express (a model invocation has no resource to deny),
/// so one spec can be pointed at any site without crashing the host layer.
enum class Kind {
  kError,  // Return a transient error (Status::IoError at the site).
  kStall,  // Sleep `stall_ms` before proceeding (latency spike).
  kDeny,   // Refuse a resource (BufferPool: bypass the freelist).
};

/// One fired injection, reported to the instrumented call site.
struct Injection {
  Kind kind = Kind::kError;
  int stall_ms = 0;  // Only meaningful for kStall.
};

/// Whether any fault site is armed (one relaxed load of the shared
/// observability flag word — the same everything-off contract as spans).
inline bool Enabled() {
  return (telemetry::Flags() & telemetry::kFaultFlag) != 0;
}

namespace internal {
/// Immutable configuration an armed site reads. Published via an atomic
/// pointer in the Site so readers never lock; retired configs are leaked
/// (they are a handful of bytes and only exist in chaos runs).
struct SiteConfig {
  Kind kind = Kind::kError;
  double rate = 0.0;     // Probability per decision in [0, 1].
  uint64_t seed = 0;     // Per-site stream seed.
  int64_t clip = -1;     // Only fire for this clip; -1 = any clip.
  int stall_ms = 1;      // Sleep for kStall decisions.
};
}  // namespace internal

/// A named point where a fault may be injected. Sites live forever in a
/// process-wide registry (like telemetry::SpanSite): hot paths resolve the
/// pointer once and afterwards pay one flag-word load per decision while
/// disarmed.
class Site {
 public:
  explicit Site(std::string name);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const std::string& name() const { return name_; }

  /// Decides whether a fault fires here for (`clip`, `token`). The decision
  /// is a pure function of (site seed, token): replaying a run with the
  /// same spec and the same tokens reproduces the same faults regardless of
  /// thread interleaving. Pass token = -1 to use a per-site hit counter
  /// instead (deterministic only for serially-invoked sites). Returns true
  /// and fills `out` when a fault fires; bumps `fault.injected.<name>`.
  bool Inject(int64_t clip, int64_t token, Injection* out);

  /// As above, attributing the decision to the calling thread's timeline
  /// clip context (timeline::CurrentContext().clip).
  bool Inject(int64_t token, Injection* out);

  // Configuration plumbing (ConfigureFaults / ClearFaults only).
  void SetConfig(const internal::SiteConfig* config) {
    config_.store(config, std::memory_order_release);
  }
  bool armed() const {
    return config_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  const std::string name_;
  std::atomic<const internal::SiteConfig*> config_{nullptr};
  std::atomic<uint64_t> hits_{0};  // Auto-token counter (token == -1).
  telemetry::Counter* const injected_;
};

/// Returns the site registered under `name`, creating it on first use. The
/// pointer is stable for the process lifetime (function-local-static
/// friendly, same idiom as telemetry::GetSpan).
Site* GetSite(const std::string& name);

/// Decision macro for instrumented layers. Zero-cost while disarmed: one
/// relaxed flag-word load, no registry lookup (the site resolves once into
/// a function-local static). `name` must be a constant expression;
/// `token` is the deterministic replay token (int64_t, or -1 for the
/// per-site hit counter); `out` is an Injection*.
///
///   fault::Injection inj;
///   if (OTIF_FAULT_POINT("mem.acquire", -1, &inj)) { ... }
#define OTIF_FAULT_POINT(name, token, out)                                 \
  ([&]() -> bool {                                                         \
    if (!::otif::fault::Enabled()) return false;                           \
    static ::otif::fault::Site* const otif_fault_site =                    \
        ::otif::fault::GetSite(name);                                      \
    return otif_fault_site->Inject((token), (out));                        \
  }())

/// Parses and installs a fault spec: comma-separated entries of
///   site:kind:rate:seed[:clip=K][:ms=N]
/// where kind is error|stall|deny, rate is a probability in
/// [0, 1], seed is a non-negative integer, clip=K limits firing to clip K,
/// and ms=N sets the stall duration (default 1). Example:
///   OTIF_FAULTS=detect.invoke:error:0.5:7:clip=1,proxy.invoke:stall:1:9:ms=2
/// Replaces any previous configuration and sets the fault flag when at
/// least one site is armed. Not synchronized with in-flight runs: call
/// between runs (tests, process startup).
Status ConfigureFaults(const std::string& spec);

/// Disarms every site and clears the fault flag.
void ClearFaults();

/// Applies OTIF_FAULTS from the environment (no-op when unset; logs a
/// warning and stays disarmed on a malformed spec). Called by
/// InitObservabilityFromEnv.
void InitFaultsFromEnv();

/// Names of currently armed sites, sorted (introspection and tests).
std::vector<std::string> ArmedSites();

}  // namespace otif::fault

#endif  // OTIF_UTIL_FAULT_INJECTION_H_
