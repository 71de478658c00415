#ifndef OTIF_UTIL_FAULT_INJECTION_H_
#define OTIF_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/telemetry.h"

namespace otif::fault {

/// What an armed site does when its deterministic RNG fires.
enum class Kind {
  kError,  // Return a transient error (Status::IoError at the site).
  kStall,  // Sleep `stall_ms` before proceeding (latency spike).
};

/// One fired injection, reported to the instrumented call site.
struct Injection {
  Kind kind = Kind::kError;
  int stall_ms = 0;  // Only meaningful for kStall.
};

/// The instrumented sites, both consulted by Pipeline::Run before each frame
/// group: the proxy invocation (only for configurations that use the proxy)
/// and the detector invocation. ConfigureFaults rejects any other name.
inline constexpr char kProxySite[] = "proxy.invoke";
inline constexpr char kDetectSite[] = "detect.invoke";

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

/// One of the two instrumented points where a fault may be injected. Each
/// is created on first use and lives for the process: hot paths resolve the
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
  /// same spec and the same non-negative tokens reproduces the same faults
  /// regardless of thread interleaving. Returns true and fills `out` when a
  /// fault fires; bumps `fault.injected.<name>`.
  bool Inject(int64_t clip, int64_t token, Injection* out);

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
  telemetry::Counter* const injected_;
};

/// Returns the site named `name` (kProxySite or kDetectSite; any other name
/// is a fatal error), creating it on first use. The pointer is stable for
/// the process lifetime (function-local-static friendly, same idiom as
/// telemetry::GetSpan). Instrumented layers check Enabled() first, so a
/// disarmed site costs one relaxed flag-word load.
Site* GetSite(const std::string& name);

/// Parses and installs a fault spec: comma-separated entries of
///   site:kind:rate:seed[:clip=K][:ms=N]
/// where site is kProxySite or kDetectSite, kind is error|stall, rate is a
/// probability in [0, 1] (NaN is rejected), seed is a non-negative integer,
/// clip=K limits firing to clip K, and ms=N sets the stall duration in
/// [0, INT_MAX] milliseconds (default 1). Example:
///   OTIF_FAULTS=detect.invoke:error:0.5:7:clip=1,proxy.invoke:stall:1:9:ms=2
/// Replaces any previous configuration and sets the fault flag when at
/// least one site is armed. Not synchronized with in-flight runs: call
/// between runs (tests, process startup).
Status ConfigureFaults(const std::string& spec);

/// Disarms every site and clears the fault flag.
void ClearFaults();

/// Applies OTIF_FAULTS from the environment once per process (no-op when
/// unset; logs a warning and stays disarmed on a malformed spec). Later
/// calls do nothing, so they never replace a configuration installed with
/// ConfigureFaults after the first. Called by obs::InitFromEnv.
void InitFaultsFromEnv();

/// Names of currently armed sites, sorted (introspection and tests).
std::vector<std::string> ArmedSites();

}  // namespace otif::fault

#endif  // OTIF_UTIL_FAULT_INJECTION_H_
