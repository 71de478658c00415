#include "util/trace_timeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/json_writer.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/trace.h"

namespace otif::telemetry::timeline {
namespace {

thread_local TraceContext t_context;

/// Innermost open span of this thread, for profiler sample attribution.
/// Written only by the owning thread (ScopedSpan); read by that thread's
/// own SIGPROF handler, so no atomics are needed.
thread_local const SpanSite* t_current_site = nullptr;

/// Nanoseconds since the process trace epoch (anchored on first use so
/// exported timestamps start near zero).
int64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

constexpr size_t kDefaultCapacity = 1u << 15;

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::atomic<size_t>& CapacitySetting() {
  static std::atomic<size_t> capacity{kDefaultCapacity};
  return capacity;
}

/// One ring slot. All fields are atomics with relaxed ordering so a
/// concurrent snapshot is race-free under TSan; logical consistency of a
/// record comes from the seqlock protocol on `seq`: the (single) writer
/// zeroes seq, writes the fields, then publishes seq = index + 1 with
/// release; a reader that observes seq == index + 1 before *and* after
/// reading the fields got an untorn record.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<const SpanSite*> site{nullptr};
  std::atomic<int64_t> ts_ns{0};
  std::atomic<int64_t> clip{-1};
  std::atomic<uint8_t> phase{0};
};

/// Single-writer ring buffer of the owning thread's most recent events.
/// The writer never blocks and never allocates after construction; any
/// thread may snapshot concurrently.
class ThreadBuffer {
 public:
  ThreadBuffer(uint64_t tid, size_t capacity)
      : tid_(tid), slots_(capacity), mask_(capacity - 1) {}

  void Emit(const SpanSite* site, char phase, int64_t ts_ns, int64_t clip) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[h & mask_];
    slot.seq.store(0, std::memory_order_release);
    slot.site.store(site, std::memory_order_relaxed);
    slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
    slot.clip.store(clip, std::memory_order_relaxed);
    slot.phase.store(static_cast<uint8_t>(phase), std::memory_order_relaxed);
    slot.seq.store(h + 1, std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  void Snapshot(std::vector<Event>* out) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t capacity = slots_.size();
    const uint64_t begin = head > capacity ? head - capacity : 0;
    for (uint64_t i = begin; i < head; ++i) {
      const Slot& slot = slots_[i & mask_];
      if (slot.seq.load(std::memory_order_acquire) != i + 1) continue;
      Event event;
      const SpanSite* site = slot.site.load(std::memory_order_relaxed);
      event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      event.clip = slot.clip.load(std::memory_order_relaxed);
      event.phase =
          static_cast<char>(slot.phase.load(std::memory_order_relaxed));
      // Seqlock re-check: discard the record if the writer lapped us while
      // we were reading (site pointers are immortal, so even a discarded
      // read never dereferenced anything invalid).
      if (slot.seq.load(std::memory_order_acquire) != i + 1) continue;
      event.name = site->name();
      event.tid = tid_;
      out->push_back(std::move(event));
    }
  }

  void Clear() {
    for (Slot& slot : slots_) slot.seq.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
  }

 private:
  const uint64_t tid_;
  std::vector<Slot> slots_;
  const uint64_t mask_;
  std::atomic<uint64_t> head_{0};
};

/// Owns every thread's ring. Buffers are never freed (a thread that exits
/// leaves its events readable for the export at process exit) and
/// registration is the only locked operation.
class BufferRegistry {
 public:
  static BufferRegistry& Global() {
    // Leaked: events may be emitted and exported during static destruction.
    static BufferRegistry* registry = new BufferRegistry();
    return *registry;
  }

  ThreadBuffer* Register() {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t tid = static_cast<uint64_t>(buffers_.size()) + 1;
    buffers_.push_back(std::make_unique<ThreadBuffer>(
        tid, CapacitySetting().load(std::memory_order_relaxed)));
    return buffers_.back().get();
  }

  std::vector<Event> Snapshot() const {
    std::vector<Event> events;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& buffer : buffers_) buffer->Snapshot(&events);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    return events;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) buffer->Clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // Guarded by mu_.
};

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = BufferRegistry::Global().Register();
  return buffer;
}

/// Where ExportAtExit writes the trace, set once by InitFromEnv.
std::string& ExportPath() {
  static std::string* path = new std::string();
  return *path;
}

bool EnvIsFalse(const char* value) {
  return value == nullptr || *value == '\0' || std::strcmp(value, "0") == 0 ||
         std::strcmp(value, "off") == 0 || std::strcmp(value, "false") == 0;
}

bool EnvIsTrue(const char* value) {
  return value != nullptr &&
         (std::strcmp(value, "1") == 0 || std::strcmp(value, "on") == 0 ||
          std::strcmp(value, "true") == 0);
}

void ExportAtExit() {
  const Status status = WriteChromeTrace(ExportPath());
  if (!status.ok()) {
    OTIF_LOG(kError) << "timeline export failed: " << status.ToString();
  }
}

}  // namespace

TraceContext CurrentContext() { return t_context; }

const SpanSite* CurrentSpanSite() { return t_current_site; }

const SpanSite* ExchangeCurrentSpanSite(const SpanSite* site) {
  const SpanSite* previous = t_current_site;
  t_current_site = site;
  return previous;
}

ScopedContext::ScopedContext(TraceContext context) : previous_(t_context) {
  t_context = context;
}

ScopedContext::~ScopedContext() { t_context = previous_; }

bool CollectionEnabled() { return (Flags() & kTimelineFlag) != 0; }

void SetCollectionEnabled(bool enabled) {
  internal::SetFlag(kTimelineFlag, enabled);
}

void SetBufferCapacity(size_t capacity) {
  CapacitySetting().store(RoundUpPow2(std::max<size_t>(capacity, 2)),
                          std::memory_order_relaxed);
}

size_t BufferCapacity() {
  return CapacitySetting().load(std::memory_order_relaxed);
}

void EmitBegin(const SpanSite* site) {
  LocalBuffer()->Emit(site, 'B', NowNs(), t_context.clip);
}

void EmitEnd(const SpanSite* site) {
  LocalBuffer()->Emit(site, 'E', NowNs(), t_context.clip);
}

std::vector<Event> SnapshotEvents() {
  return BufferRegistry::Global().Snapshot();
}

void ClearEvents() { BufferRegistry::Global().Clear(); }

std::string ToChromeTraceJson(const std::vector<Event>& events) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const Event& event : events) {
    w.BeginObject();
    w.Key("name").Value(event.name);
    w.Key("ph").Value(std::string(1, event.phase));
    // Chrome trace timestamps are microseconds.
    w.Key("ts").Value(static_cast<double>(event.ts_ns) / 1e3);
    w.Key("pid").Value(1);
    w.Key("tid").Value(event.tid);
    w.Key("args").BeginObject().Key("clip").Value(event.clip).EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").Value("ms");
  w.EndObject();
  return std::move(w).TakeString();
}

Status WriteChromeTrace(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ToChromeTraceJson(SnapshotEvents()) << "\n";
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

void InitFromEnv() {
  static const bool initialized = [] {
    const char* timeline = std::getenv("OTIF_TRACE_TIMELINE");
    if (!EnvIsFalse(timeline)) {
      SetCollectionEnabled(true);
      ExportPath() = EnvIsTrue(timeline) ? "otif_trace.json" : timeline;
      std::atexit(ExportAtExit);
    }
    return true;
  }();
  (void)initialized;
}

}  // namespace otif::telemetry::timeline
