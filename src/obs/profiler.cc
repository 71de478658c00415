#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/json_writer.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

// Sanitizer runtimes intercept signal delivery and take locks inside the
// handler path; a SIGPROF storm under them deadlocks or trips the tool's
// own diagnostics. The profiler therefore refuses to start in those builds.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define OTIF_PROFILER_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define OTIF_PROFILER_SANITIZED 1
#endif
#endif

namespace otif::obs {
namespace {

/// Raw program counters captured per sample. 48 frames covers the deepest
/// pipeline stacks (executor → stage → model → GEMM) with headroom.
constexpr int kMaxFrames = 48;
/// Leading frames that belong to the capture machinery itself: the signal
/// handler (backtrace's caller) and the kernel signal trampoline.
constexpr int kSkipFrames = 2;
/// Rings the pre-allocated pool holds. Threads claim one each, permanently
/// (thread churn across many profiling sessions can exhaust the pool, in
/// which case further threads' samples land in the dropped counter).
constexpr size_t kMaxRings = 128;
/// Pending-sample slots per ring (a power of two). The collector drains
/// every ~50 ms; overflow increments the dropped counter rather than
/// blocking or overwriting.
constexpr size_t kRingSlots = 256;

struct RawSample {
  const telemetry::SpanSite* stage;
  int64_t clip;
  int32_t depth;
  void* pcs[kMaxFrames];
};

/// Single-producer (the owning thread's SIGPROF handler — handlers never
/// nest, SIGPROF is blocked during its own delivery) / single-consumer (the
/// collector) bounded ring. The producer publishes with a release store of
/// `head`; the consumer releases slots back with a release store of `tail`.
/// A full ring drops the sample and counts it — the handler never blocks.
struct alignas(64) SampleRing {
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> tail{0};
  std::atomic<int64_t> dropped{0};
  std::atomic<int64_t> handler_ns{0};
  RawSample* slots = nullptr;  ///< `capacity` entries; null for capacity 0.
  size_t capacity = 0;         ///< Power of two (0 = always-drop overflow).
};

/// Pre-allocated pool of rings, built on first Start and leaked: thread
/// ring assignments are permanent, so the memory must outlive every thread
/// that might still take a late signal.
struct RingPool {
  SampleRing rings[kMaxRings];
  std::atomic<size_t> claimed{0};
};

std::atomic<RingPool*> g_pool{nullptr};

/// Threads beyond kMaxRings park here: capacity 0 means every Push drops.
SampleRing g_overflow_ring;

/// This thread's claimed ring (or &g_overflow_ring once the pool is
/// exhausted). Plain local-exec TLS: reading/writing it from the signal
/// handler involves no allocation and no locks.
thread_local SampleRing* t_ring = nullptr;

int64_t MonotonicNs() {
  // clock_gettime is async-signal-safe (POSIX); steady_clock wraps it but
  // the raw call keeps the handler's dependency surface explicit.
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

}  // namespace

/// The SIGPROF handler. Everything it touches is async-signal-safe: one
/// relaxed flag load, backtrace() (primed at Start), plain TLS reads for
/// attribution, and lock-free atomics into pre-allocated ring memory.
/// extern "C" with a distinctive name so symbolization can recognize (and
/// strip) any of its own frames that survive the fixed skip.
extern "C" void OtifProfilerSignalHandler(int, siginfo_t*, void*) {
  const int saved_errno = errno;
  if ((telemetry::Flags() & telemetry::kProfilerFlag) != 0) {
    const int64_t t0 = MonotonicNs();
    RingPool* pool = g_pool.load(std::memory_order_acquire);
    SampleRing* ring = t_ring;
    if (ring == nullptr && pool != nullptr) {
      const size_t idx = pool->claimed.fetch_add(1, std::memory_order_relaxed);
      ring = idx < kMaxRings ? &pool->rings[idx] : &g_overflow_ring;
      t_ring = ring;
    }
    if (ring != nullptr) {
      const uint64_t head = ring->head.load(std::memory_order_relaxed);
      const uint64_t tail = ring->tail.load(std::memory_order_acquire);
      if (head - tail >= ring->capacity) {
        ring->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        RawSample& slot = ring->slots[head & (ring->capacity - 1)];
        void* raw[kMaxFrames + kSkipFrames];
        const int depth = ::backtrace(raw, kMaxFrames + kSkipFrames);
        slot.depth = depth > kSkipFrames ? depth - kSkipFrames : 0;
        std::memcpy(slot.pcs, raw + kSkipFrames,
                    sizeof(void*) * static_cast<size_t>(slot.depth));
        slot.stage = telemetry::timeline::CurrentSpanSite();
        slot.clip = telemetry::timeline::CurrentContext().clip;
        ring->head.store(head + 1, std::memory_order_release);
      }
      ring->handler_ns.fetch_add(MonotonicNs() - t0,
                                 std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

namespace {

/// Fold key: one distinct (stage, clip, stack) triple.
struct FoldKey {
  const telemetry::SpanSite* stage;
  int64_t clip;
  std::vector<void*> pcs;  // Leaf-first, as captured.

  bool operator==(const FoldKey& o) const {
    return stage == o.stage && clip == o.clip && pcs == o.pcs;
  }
};

struct FoldKeyHash {
  size_t operator()(const FoldKey& k) const {
    size_t h = std::hash<const void*>()(k.stage) ^
               (std::hash<int64_t>()(k.clip) * 1099511628211ull);
    for (void* pc : k.pcs) {
      h = h * 1099511628211ull + std::hash<void*>()(pc);
    }
    return h;
  }
};

/// Resolves one pc to a human-readable frame, collapsed-stack safe (no ';',
/// no spaces). dladdr needs the symbol in the dynamic table — executables
/// link with -rdynamic for exactly this — so inlined code resolves to its
/// enclosing exported function, and a function with internal linkage (an
/// anonymous-namespace helper the compiler kept out of line) to the
/// binary's name. The GEMM kernels have external linkage and report as
/// themselves, "void_otif::nn::MicroKernel<false>" under GemmBias (a
/// function template's name keeps its return type), except the clones the
/// compiler specializes for constant arguments, which are local again.
std::string SymbolizePc(void* pc) {
  Dl_info info;
  std::string name;
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled
                                                 : info.dli_sname;
    std::free(demangled);
    // Drop the parameter list: "otif::nn::GemmBias(int, int, ...)" →
    // "otif::nn::GemmBias". Keeps lambdas attributed to their enclosing
    // function, which is what a flamegraph reader wants anyway.
    const size_t paren = name.find('(');
    if (paren != std::string::npos && paren > 0) name.resize(paren);
  } else if (::dladdr(pc, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    name = std::string("[") + (base != nullptr ? base + 1 : info.dli_fname) +
           "]";
  } else {
    name = StrFormat("[0x%zx]", reinterpret_cast<uintptr_t>(pc));
  }
  for (char& c : name) {
    if (c == ';' || c == ' ' || c == '\n') c = '_';
  }
  return name;
}

bool IsCaptureFrame(const std::string& name) {
  return name.find("OtifProfilerSignalHandler") != std::string::npos ||
         name.find("__restore_rt") != std::string::npos ||
         name.find("killpg") != std::string::npos;
}

/// EINTR-proof sleep: nanosleep is *not* restarted by SA_RESTART, and the
/// whole point of this sleep is to sit through a SIGPROF storm.
void SleepThroughSignals(double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;
    const auto left =
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now);
    timespec req{static_cast<time_t>(left.count() / 1000000000),
                 static_cast<long>(left.count() % 1000000000)};
    if (::nanosleep(&req, nullptr) == 0) return;
  }
}

/// Everything behind CpuProfiler. A plain struct guarded by one mutex for
/// the (rare) Start/Stop transitions; the hot paths never touch it.
struct ProfilerState {
  std::mutex mu;
  bool running = false;
  ProfilerOptions options;
  timer_t timer{};
  bool handler_installed = false;

  std::thread collector;
  std::mutex collector_mu;
  std::condition_variable collector_cv;
  bool collector_stop = false;

  std::chrono::steady_clock::time_point window_start;

  // Collector-owned aggregation for the current window.
  std::unordered_map<FoldKey, int64_t, FoldKeyHash> folded;
  int64_t samples = 0;

  // Ring counters are cumulative across sessions; baselines mark the
  // window start so the Profile reports per-window values.
  int64_t dropped_baseline = 0;
  int64_t handler_ns_baseline = 0;

  // Last values published to the telemetry self-metrics (cumulative).
  int64_t published_samples = 0;
  int64_t published_dropped = 0;
  int64_t published_handler_ns = 0;

  // Symbol cache, persistent across windows (sites are immortal).
  std::map<void*, std::string> symbols;
};

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState();  // Leaked, like the
  return *state;                                      // other registries.
}

int64_t SumDropped(const RingPool& pool) {
  int64_t total = g_overflow_ring.dropped.load(std::memory_order_relaxed);
  for (const SampleRing& ring : pool.rings) {
    total += ring.dropped.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t SumHandlerNs(const RingPool& pool) {
  int64_t total = g_overflow_ring.handler_ns.load(std::memory_order_relaxed);
  for (const SampleRing& ring : pool.rings) {
    total += ring.handler_ns.load(std::memory_order_relaxed);
  }
  return total;
}

/// Drains every ring into the fold map. Collector-thread only.
void DrainRings(ProfilerState& state) {
  RingPool* pool = g_pool.load(std::memory_order_acquire);
  if (pool == nullptr) return;
  for (SampleRing& ring : pool->rings) {
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    uint64_t tail = ring.tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const RawSample& slot = ring.slots[tail & (ring.capacity - 1)];
      FoldKey key;
      key.stage = slot.stage;
      key.clip = slot.clip;
      key.pcs.assign(slot.pcs, slot.pcs + slot.depth);
      ++state.folded[std::move(key)];
      ++state.samples;
    }
    ring.tail.store(tail, std::memory_order_release);
  }
}

/// Publishes self-metric deltas since the last publish. Collector only.
void PublishSelfMetrics(ProfilerState& state) {
  RingPool* pool = g_pool.load(std::memory_order_acquire);
  if (pool == nullptr) return;
  static telemetry::Counter* const samples =
      telemetry::MetricsRegistry::Global().GetCounter("obs.profiler.samples");
  static telemetry::Counter* const dropped =
      telemetry::MetricsRegistry::Global().GetCounter("obs.profiler.dropped");
  static telemetry::Gauge* const overhead =
      telemetry::MetricsRegistry::Global().GetGauge(
          "obs.profiler.signal_overhead_seconds");
  samples->Add(state.samples - state.published_samples);
  state.published_samples = state.samples;
  const int64_t dropped_now = SumDropped(*pool);
  dropped->Add(dropped_now - state.published_dropped);
  state.published_dropped = dropped_now;
  const int64_t handler_ns_now = SumHandlerNs(*pool);
  overhead->Add(static_cast<double>(handler_ns_now -
                                    state.published_handler_ns) /
                1e9);
  state.published_handler_ns = handler_ns_now;
}

#ifndef OTIF_PROFILER_SANITIZED
// Only Start's sampling branch runs the collector.
void CollectorLoop(ProfilerState& state) {
  std::unique_lock<std::mutex> lock(state.collector_mu);
  while (!state.collector_stop) {
    state.collector_cv.wait_for(lock, std::chrono::milliseconds(50),
                                [&] { return state.collector_stop; });
    lock.unlock();
    DrainRings(state);
    PublishSelfMetrics(state);
    lock.lock();
  }
}
#endif

const std::string& CachedSymbol(ProfilerState& state, void* pc) {
  auto it = state.symbols.find(pc);
  if (it == state.symbols.end()) {
    it = state.symbols.emplace(pc, SymbolizePc(pc)).first;
  }
  return it->second;
}

/// Folded map → sorted, symbolized Profile stacks. Collector is stopped
/// when this runs.
void BuildStacks(ProfilerState& state, Profile* profile) {
  profile->stacks.reserve(state.folded.size());
  for (const auto& [key, count] : state.folded) {
    ProfileStack stack;
    stack.stage = key.stage != nullptr ? key.stage->name() : std::string();
    stack.clip = key.clip;
    stack.count = count;
    // Captured leaf-first; emit root-first, stripping any capture-machinery
    // frames that survived the fixed skip (inlining can shift the count).
    stack.frames.reserve(key.pcs.size());
    for (auto it = key.pcs.rbegin(); it != key.pcs.rend(); ++it) {
      const std::string& name = CachedSymbol(state, *it);
      if (IsCaptureFrame(name)) continue;
      stack.frames.push_back(name);
    }
    profile->stacks.push_back(std::move(stack));
  }
  std::sort(profile->stacks.begin(), profile->stacks.end(),
            [](const ProfileStack& a, const ProfileStack& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.stage != b.stage) return a.stage < b.stage;
              if (a.clip != b.clip) return a.clip < b.clip;
              return a.frames < b.frames;
            });
}

// Whole-run profile (OTIF_PROFILE): stopped and written by an atexit hook.
std::string& WholeRunPath() {
  static std::string* path = new std::string();
  return *path;
}

void DumpWholeRunProfile() {
  StatusOr<Profile> profile = CpuProfiler::Global().Stop();
  if (!profile.ok()) {
    OTIF_LOG(kError) << "whole-run profile stop failed: "
                     << profile.status().ToString();
    return;
  }
  const std::string& path = WholeRunPath();
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << (json ? ProfileToJson(*profile)
               : ToCollapsed(*profile, /*with_context=*/true));
  if (json) out << "\n";
  out.flush();
  if (!out) {
    OTIF_LOG(kError) << "whole-run profile write to " << path << " failed";
    return;
  }
  OTIF_LOG(kInfo) << "whole-run profile: " << profile->samples
                  << " samples (" << profile->dropped << " dropped) → "
                  << path;
}

}  // namespace

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* profiler = new CpuProfiler();
  return *profiler;
}

bool CpuProfiler::running() const {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.running;
}

Status CpuProfiler::Start(const ProfilerOptions& options) {
#ifdef OTIF_PROFILER_SANITIZED
  static const bool warned = [] {
    OTIF_LOG(kWarning)
        << "sampling profiler disabled under TSan/ASan: the sanitizer "
           "runtime intercepts signals and is not async-signal-safe";
    return true;
  }();
  (void)warned;
  (void)options;
  return Status::FailedPrecondition(
      "profiler unavailable in sanitizer builds");
#else
  if (options.hz <= 0 || options.hz > 1000) {
    return Status::InvalidArgument(
        StrFormat("profiler hz must be in (0, 1000], got %d", options.hz));
  }
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.running) {
    return Status::FailedPrecondition("profiler already running");
  }

  // Build the leaked ring pool once; later windows reuse the same rings.
  if (g_pool.load(std::memory_order_acquire) == nullptr) {
    RingPool* pool = new RingPool();
    for (SampleRing& ring : pool->rings) {
      ring.slots = new RawSample[kRingSlots];
      ring.capacity = kRingSlots;
    }
    g_pool.store(pool, std::memory_order_release);
  }

  // Prime backtrace(): its first call may dlopen/allocate inside libgcc;
  // force that here, outside any signal context.
  void* prime[4];
  ::backtrace(prime, 4);

  if (!state.handler_installed) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = OtifProfilerSignalHandler;
    sigemptyset(&action.sa_mask);
    // SA_RESTART keeps interrupted syscalls transparent to the run (the
    // bit-identity contract); nanosleep is the one exception callers of
    // long sleeps must loop around.
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    if (::sigaction(SIGPROF, &action, nullptr) != 0) {
      return Status::Internal(StrFormat("sigaction(SIGPROF): %s",
                                        std::strerror(errno)));
    }
    // Left installed for the process lifetime: a straggler SIGPROF after a
    // timer_delete must hit our (inert) handler, never the default action.
    state.handler_installed = true;
  }

  // Fresh window: baselines off the cumulative ring counters.
  RingPool* pool = g_pool.load(std::memory_order_acquire);
  state.folded.clear();
  state.samples = 0;
  state.dropped_baseline = SumDropped(*pool);
  state.handler_ns_baseline = SumHandlerNs(*pool);
  state.published_samples = 0;
  state.options = options;
  state.window_start = std::chrono::steady_clock::now();

  {
    std::lock_guard<std::mutex> collector_lock(state.collector_mu);
    state.collector_stop = false;
  }
  state.collector = std::thread([&state] { CollectorLoop(state); });

  telemetry::internal::SetFlag(telemetry::kProfilerFlag, true);

  struct sigevent event;
  std::memset(&event, 0, sizeof(event));
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  if (::timer_create(CLOCK_PROCESS_CPUTIME_ID, &event, &state.timer) != 0) {
    telemetry::internal::SetFlag(telemetry::kProfilerFlag, false);
    {
      std::lock_guard<std::mutex> collector_lock(state.collector_mu);
      state.collector_stop = true;
    }
    state.collector_cv.notify_all();
    state.collector.join();
    return Status::Internal(StrFormat("timer_create(CLOCK_PROCESS_CPUTIME): "
                                      "%s",
                                      std::strerror(errno)));
  }
  const long interval_ns = 1000000000L / options.hz;
  itimerspec spec;
  spec.it_interval = {interval_ns / 1000000000, interval_ns % 1000000000};
  spec.it_value = spec.it_interval;
  ::timer_settime(state.timer, 0, &spec, nullptr);
  state.running = true;
  return Status::OK();
#endif
}

StatusOr<Profile> CpuProfiler::Stop() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.running) {
    return Status::FailedPrecondition("profiler not running");
  }
  // Disarm first (handlers go inert), then tear the timer down. A signal
  // already in flight sees the cleared flag and returns immediately; one
  // mid-handler when the flag clears finishes its lock-free push, which
  // the final drain below then picks up.
  telemetry::internal::SetFlag(telemetry::kProfilerFlag, false);
  ::timer_delete(state.timer);
  {
    std::lock_guard<std::mutex> collector_lock(state.collector_mu);
    state.collector_stop = true;
  }
  state.collector_cv.notify_all();
  state.collector.join();
  DrainRings(state);
  PublishSelfMetrics(state);
  state.running = false;

  RingPool* pool = g_pool.load(std::memory_order_acquire);
  Profile profile;
  profile.hz = state.options.hz;
  profile.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    state.window_start)
          .count();
  profile.samples = state.samples;
  profile.dropped = SumDropped(*pool) - state.dropped_baseline;
  profile.signal_overhead_seconds =
      static_cast<double>(SumHandlerNs(*pool) - state.handler_ns_baseline) /
      1e9;
  BuildStacks(state, &profile);
  state.folded.clear();
  return profile;
}

StatusOr<Profile> CpuProfiler::ProfileFor(double seconds,
                                          const ProfilerOptions& options) {
  if (!(seconds > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("profile window must be positive, got %f", seconds));
  }
  Status started = Start(options);
  if (!started.ok()) return started;
  SleepThroughSignals(seconds);
  return Stop();
}

std::string ToCollapsed(const Profile& profile, bool with_context) {
  std::string out;
  for (const ProfileStack& stack : profile.stacks) {
    std::string line;
    if (with_context) {
      line += stack.stage.empty() ? "(no_stage)" : stack.stage;
      line += ';';
      line += stack.clip >= 0 ? StrFormat("clip%lld",
                                          static_cast<long long>(stack.clip))
                              : "(no_clip)";
    }
    if (stack.frames.empty() && !with_context) {
      line += "(truncated)";
    }
    for (const std::string& frame : stack.frames) {
      if (!line.empty()) line += ';';
      line += frame;
    }
    if (line.empty()) line = "(truncated)";
    out += line;
    out += StrFormat(" %lld\n", static_cast<long long>(stack.count));
  }
  return out;
}

std::string ProfileToJson(const Profile& profile) {
  JsonWriter w;
  w.BeginObject();
  w.Key("hz").Value(profile.hz);
  w.Key("duration_seconds").Value(profile.duration_seconds);
  w.Key("samples").Value(profile.samples);
  w.Key("dropped").Value(profile.dropped);
  w.Key("signal_overhead_seconds").Value(profile.signal_overhead_seconds);
  w.Key("stacks").BeginArray();
  for (const ProfileStack& stack : profile.stacks) {
    w.BeginObject();
    w.Key("stage").Value(stack.stage);
    w.Key("clip").Value(stack.clip);
    w.Key("count").Value(stack.count);
    w.Key("frames").BeginArray();
    for (const std::string& frame : stack.frames) w.Value(frame);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).TakeString();
}

bool InitProfilerFromEnv() {
  static const bool armed = [] {
    const char* path = std::getenv("OTIF_PROFILE");
    if (path == nullptr || *path == '\0') return false;
    WholeRunPath() = path;
    const Status status = CpuProfiler::Global().Start();
    if (!status.ok()) {
      OTIF_LOG(kWarning) << "OTIF_PROFILE ignored: " << status.ToString();
      return false;
    }
    std::atexit(DumpWholeRunProfile);
    OTIF_LOG(kInfo) << "whole-run CPU profile armed → " << WholeRunPath();
    return true;
  }();
  return armed;
}

}  // namespace otif::obs
