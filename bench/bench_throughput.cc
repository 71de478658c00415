// Worker-count sweep over a fixed per-clip pipeline workload. Measures
// wall-clock throughput of the parallel clip scheduler (clips processed per
// second of real time — not simulated seconds) and emits a JSON run report
// on stdout so sweeps can be archived and diffed across machines
// (tools/bench_baseline.py builds the perf baseline from it).
//
// The workload runs the proxy-enabled pipeline (untrained proxy weights:
// deterministic per seed, and training quality is irrelevant to throughput)
// so the report covers every execution stage plus the shared proxy score
// cache. Per worker count the report carries the per-stage wall-clock
// totals from the pipeline's telemetry spans, thread-pool utilization
// (busy seconds / wall * lanes), queue-depth percentiles, and the proxy
// cache hit rate; the full telemetry snapshot of the last sweep point is
// appended under "telemetry".
//
// With OTIF_TRACE_TIMELINE set (see bench::BenchInit) the sweep also
// exports a Chrome trace-event timeline of every stage span, tagged with
// clip ids across the worker threads.
//
// The report also carries a 64-bit digest of every clip's result from the
// last run (the widest sweep point) plus the clips fault recovery
// quarantined there, so a run under OTIF_FAULTS can be diffed against a
// fault-free one clip by clip.
//
// With --profile each sweep point's measured repetitions run under the
// sampling CPU profiler (src/obs/profiler); the report then carries a
// "profile" section per point: sample/drop counts, the measured signal-
// handler overhead as a fraction of profiled CPU, and the top-K inclusive
// frames ("which functions is the CPU actually inside or beneath").
// Profiling is observational only — throughput numbers remain comparable
// with runs that did not pass the flag (minus the ~per-sample handler cost
// the overhead_fraction field itself reports).
//
// Usage: bench_throughput [--profile] [clips] [frames_per_clip]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/bench_common.h"
#include "core/pipeline.h"
#include "mem/buffer_pool.h"
#include "obs/profiler.h"
#include "obs/run_progress.h"
#include "models/cost_model.h"
#include "models/proxy.h"
#include "sim/dataset.h"
#include "util/json_writer.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace {

/// One pass over the clips on the default pool; returns wall seconds and
/// leaves the per-clip results in `results`.
double RunOnce(const otif::core::Pipeline& pipeline,
               const std::vector<otif::sim::Clip>& clips,
               std::vector<otif::core::PipelineResult>* results) {
  // Live-progress run registration (no-op without OTIF_METRICS_PORT /
  // OTIF_PROGRESS_SEC).
  if (otif::obs::ProgressEnabled()) {
    const int gap = pipeline.config().sampling_gap;
    std::vector<int64_t> totals;
    totals.reserve(clips.size());
    for (const otif::sim::Clip& clip : clips) {
      totals.push_back((clip.num_frames() + gap - 1) / gap);
    }
    otif::obs::RunProgress::Global().BeginRun("bench_serial",
                                              std::move(totals));
  }
  const auto start = std::chrono::steady_clock::now();
  *results = otif::ParallelMap(
      otif::ThreadPool::Default(), static_cast<int64_t>(clips.size()),
      [&](int64_t i) {
        // Timeline attribution and fault decisions: this task is clip i.
        otif::telemetry::timeline::ScopedContext ctx({.clip = i});
        return pipeline.Run(clips[static_cast<size_t>(i)]);
      });
  const auto end = std::chrono::steady_clock::now();
  if (otif::obs::ProgressEnabled()) {
    otif::obs::RunProgress::Global().EndRun();
  }
  return std::chrono::duration<double>(end - start).count();
}

// --- Per-clip result digests -------------------------------------------------
//
// A 64-bit FNV-1a over every result field the pipeline's bit-identity
// contract covers. check.sh --faults compares these digests between a
// faulted and a fault-free run to prove surviving clips were untouched.

void DigestBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

template <typename T>
void DigestValue(uint64_t* h, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  DigestBytes(h, &value, sizeof(value));
}

uint64_t ResultDigest(const otif::core::PipelineResult& r) {
  uint64_t h = 14695981039346656037ull;
  DigestValue(&h, r.frames_processed);
  DigestValue(&h, r.detections_kept);
  DigestValue(&h, r.mean_window_coverage);
  for (int c = 0; c < otif::models::kNumCostCategories; ++c) {
    DigestValue(
        &h, r.clock.Seconds(static_cast<otif::models::CostCategory>(c)));
  }
  for (const otif::track::Track& t : r.tracks) {
    DigestValue(&h, t.id);
    DigestValue(&h, t.cls);
    for (const otif::track::Detection& d : t.detections) {
      DigestValue(&h, d.frame);
      DigestValue(&h, d.box.cx);
      DigestValue(&h, d.box.cy);
      DigestValue(&h, d.box.w);
      DigestValue(&h, d.box.h);
      DigestValue(&h, d.cls);
      DigestValue(&h, d.confidence);
    }
  }
  return h;
}

double StageWallSeconds(const otif::telemetry::TelemetrySnapshot& snapshot,
                        otif::models::CostCategory category) {
  const otif::telemetry::SpanSample* span = otif::telemetry::FindSpan(
      snapshot, std::string("stage/") +
                    otif::models::CostCategoryName(category));
  return span != nullptr ? span->total_seconds : 0.0;
}

const otif::telemetry::HistogramSample* FindHistogram(
    const otif::telemetry::TelemetrySnapshot& snapshot,
    const std::string& name) {
  for (const otif::telemetry::HistogramSample& s : snapshot.histograms) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Emits {"mean_frames": .., "p50": .., "p99": ..} for a (possibly absent)
/// frame-count histogram into the currently open object.
void WriteFrameHistogramStats(otif::JsonWriter& report,
                              const otif::telemetry::HistogramSample* h) {
  const otif::telemetry::HistogramSample empty{};
  const otif::telemetry::HistogramSample& s = h != nullptr ? *h : empty;
  report.Key("mean_frames")
      .Value(s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0);
  report.Key("p50").Value(otif::telemetry::HistogramQuantile(s, 0.50));
  report.Key("p99").Value(otif::telemetry::HistogramQuantile(s, 0.99));
}

}  // namespace

int main(int argc, char** argv) {
  otif::bench::BenchInit();
  // The report is built from telemetry; this bench measures instrumented
  // throughput, so collection is always on regardless of OTIF_TELEMETRY.
  otif::telemetry::SetEnabled(true);

  bool profile = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int num_clips =
      positional.size() > 0 ? std::atoi(positional[0]) : 16;
  const int frames = positional.size() > 1 ? std::atoi(positional[1]) : 300;

  const otif::sim::DatasetSpec spec =
      otif::sim::MakeDataset(otif::sim::DatasetId::kSynthetic);
  std::vector<otif::sim::Clip> clips;
  for (int c = 0; c < num_clips; ++c) {
    clips.push_back(otif::sim::SimulateClip(
        spec, otif::sim::ClipSeed(spec, 3, c), frames));
  }

  // Proxy-enabled SORT pipeline over a fixed (untrained, deterministic)
  // proxy model: exercises decode/proxy/detect/track stages and the score
  // cache without paying for training.
  otif::core::TrainedModels trained;
  const auto resolutions = otif::models::StandardProxyResolutions();
  trained.proxies.push_back(std::make_unique<otif::models::ProxyModel>(
      resolutions.back(), /*seed=*/1234));
  // The largest window must cover the full frame (synthetic is 320x240).
  trained.window_sizes = {otif::core::WindowSize{64, 64},
                          otif::core::WindowSize{128, 96},
                          otif::core::WindowSize{spec.width, spec.height}};
  otif::core::PipelineConfig config;
  config.use_proxy = true;
  config.proxy_resolution_index = 0;
  config.proxy_threshold = 0.3;
  const otif::core::Pipeline pipeline(config, &trained);

  // Sweep 1, 2, 4 and the machine width (deduplicated, ascending).
  std::vector<int> worker_counts = {1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0) worker_counts.push_back(hw);
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(
      std::unique(worker_counts.begin(), worker_counts.end()),
      worker_counts.end());

  otif::JsonWriter report;
  report.BeginObject();
  report.Key("benchmark").Value("pipeline_throughput");
  report.Key("clips").Value(num_clips);
  report.Key("frames_per_clip").Value(frames);
  report.Key("config").Value(config.ToString());
  report.Key("hardware_concurrency").Value(hw);
  report.Key("results").BeginArray();
  otif::telemetry::TelemetrySnapshot snapshot;
  std::vector<otif::core::PipelineResult> last_results;
  for (const int workers : worker_counts) {
    otif::ThreadPool::SetDefaultThreads(workers);
    const auto run_once = [&] {
      return RunOnce(pipeline, clips, &last_results);
    };
    // Warm-up: the first run faults in clip state and the proxy cache; the
    // second runs the warm-cache code path the measured reps take, faulting
    // in the pooled (4 KiB and up) blocks that path's liveness peak needs.
    // After it, a single-worker run is exactly replayed by each measured
    // rep, so its pooled-allocation count is deterministically zero.
    run_once();
    run_once();
    // Measure from a clean slate so the report covers exactly the measured
    // repetitions of this sweep point. Pool stats are intrinsic atomics
    // (not registry metrics), so they are deltaed across the window instead
    // of reset — ResetAll() must not disturb them.
    otif::telemetry::ResetAll();
    trained.proxy_cache.ResetCounters();
    const otif::mem::BufferPool::Stats mem_before =
        otif::mem::BufferPool::Global().GetStats();
    constexpr int kReps = 3;
    // --profile: sample the measured reps (not the warm-ups) so the top
    // frames describe exactly the window the throughput numbers cover.
    bool profiling = false;
    if (profile) {
      const otif::Status started = otif::obs::CpuProfiler::Global().Start();
      profiling = started.ok();
      if (!profiling) {
        std::fprintf(stderr, "profiler disabled: %s\n",
                     started.ToString().c_str());
      }
    }
    double best = run_once();
    double wall_sum = best;
    for (int rep = 1; rep < kReps; ++rep) {
      const double seconds = run_once();
      wall_sum += seconds;
      best = std::min(best, seconds);
    }
    otif::obs::Profile prof;
    if (profiling) {
      otif::StatusOr<otif::obs::Profile> stopped =
          otif::obs::CpuProfiler::Global().Stop();
      if (stopped.ok()) {
        prof = std::move(stopped.value());
      } else {
        profiling = false;
        std::fprintf(stderr, "profiler stop failed: %s\n",
                     stopped.status().ToString().c_str());
      }
    }
    const otif::mem::BufferPool::Stats mem_after =
        otif::mem::BufferPool::Global().GetStats();
    // The steady-state-allocation claim, measured: pool misses plus arena
    // chunk growth across the measured reps, after the warm-up run above.
    const int64_t mem_hits = mem_after.hits - mem_before.hits;
    const int64_t mem_misses = mem_after.misses - mem_before.misses;
    const int64_t arena_allocs =
        mem_after.arena_allocs - mem_before.arena_allocs;
    const int64_t hot_loop_allocations = mem_misses + arena_allocs;
    const double pool_hit_rate =
        mem_hits + mem_misses > 0
            ? static_cast<double>(mem_hits) / (mem_hits + mem_misses)
            : 1.0;
    otif::mem::BufferPool::Global().PublishTelemetry();
    otif::telemetry::MetricsRegistry::Global()
        .GetGauge("mem.pool.allocations_per_clip")
        ->Set(static_cast<double>(hot_loop_allocations) /
              (static_cast<double>(num_clips) * kReps));
    snapshot = otif::telemetry::CaptureSnapshot();

    const otif::telemetry::GaugeSample* busy =
        otif::telemetry::FindGauge(snapshot, "threadpool.busy_seconds");
    const otif::telemetry::CounterSample* tasks =
        otif::telemetry::FindCounter(snapshot, "threadpool.tasks_executed");
    const double utilization =
        busy != nullptr && wall_sum > 0.0
            ? busy->value / (wall_sum * workers)
            : 0.0;
    report.BeginObject();
    report.Key("workers").Value(workers);
    report.Key("seconds").Value(best);
    report.Key("clips_per_sec").Value(static_cast<double>(num_clips) / best);
    report.Key("utilization").Value(utilization);
    report.Key("tasks_executed")
        .Value(tasks != nullptr ? tasks->value : int64_t{0});
    report.Key("stage_wall_seconds").BeginObject();
    report.Key("decode").Value(
        StageWallSeconds(snapshot, otif::models::CostCategory::kDecode));
    report.Key("proxy").Value(
        StageWallSeconds(snapshot, otif::models::CostCategory::kProxy));
    report.Key("detect").Value(
        StageWallSeconds(snapshot, otif::models::CostCategory::kDetect));
    report.Key("track").Value(
        StageWallSeconds(snapshot, otif::models::CostCategory::kTrack));
    report.Key("refine").Value(
        StageWallSeconds(snapshot, otif::models::CostCategory::kRefine));
    report.EndObject();
    report.Key("queue_depth").BeginObject();
    const otif::telemetry::HistogramSample* depth =
        FindHistogram(snapshot, "threadpool.queue_depth");
    const otif::telemetry::HistogramSample empty{};
    const otif::telemetry::HistogramSample& d =
        depth != nullptr ? *depth : empty;
    report.Key("p50").Value(otif::telemetry::HistogramQuantile(d, 0.50));
    report.Key("p90").Value(otif::telemetry::HistogramQuantile(d, 0.90));
    report.Key("p99").Value(otif::telemetry::HistogramQuantile(d, 0.99));
    report.EndObject();
    report.Key("proxy_cache").BeginObject();
    report.Key("hits").Value(trained.proxy_cache.hits());
    report.Key("misses").Value(trained.proxy_cache.misses());
    report.Key("evictions").Value(trained.proxy_cache.evictions());
    report.Key("hit_rate").Value(trained.proxy_cache.hit_rate());
    report.EndObject();
    // Frame/tensor memory layer over the measured reps: the check.sh gate
    // asserts allocations == 0 and pool_hit_rate >= 0.99 at the
    // deterministic single-worker point. Only pooled buffers (4 KiB and up)
    // and arena chunks are counted; tensors below 4 KiB come from malloc
    // and appear in no counter here.
    report.Key("memory").BeginObject();
    report.Key("pool_hits").Value(mem_hits);
    report.Key("pool_misses").Value(mem_misses);
    report.Key("arena_allocations").Value(arena_allocs);
    report.Key("allocations").Value(hot_loop_allocations);
    report.Key("allocations_per_clip")
        .Value(static_cast<double>(hot_loop_allocations) /
               (static_cast<double>(num_clips) * kReps));
    report.Key("pool_hit_rate").Value(pool_hit_rate);
    report.Key("bytes_in_flight").Value(mem_after.bytes_in_flight);
    report.Key("bytes_retained").Value(mem_after.bytes_retained);
    report.Key("arena_bytes_reserved").Value(mem_after.arena_bytes_reserved);
    report.EndObject();
    if (profile) {
      report.Key("profile").BeginObject();
      report.Key("enabled").Value(profiling);
      if (profiling) {
        report.Key("hz").Value(prof.hz);
        report.Key("duration_seconds").Value(prof.duration_seconds);
        report.Key("samples").Value(prof.samples);
        report.Key("dropped").Value(prof.dropped);
        report.Key("signal_overhead_seconds")
            .Value(prof.signal_overhead_seconds);
        // Samples fire at `hz` per consumed CPU second, so samples/hz
        // estimates the CPU the window profiled; handler CPU over that is
        // the profiler's own overhead fraction (what the check.sh gate
        // bounds at 5%). Immune to wall-clock noise, unlike an A/B of two
        // bench runs.
        const double cpu_seconds =
            prof.hz > 0 ? static_cast<double>(prof.samples) / prof.hz : 0.0;
        report.Key("overhead_fraction")
            .Value(cpu_seconds > 0.0
                       ? prof.signal_overhead_seconds / cpu_seconds
                       : 0.0);
        report.Key("top_frames").BeginArray();
        for (const auto& [symbol, count] : otif::obs::TopFrames(prof, 40)) {
          report.BeginObject();
          report.Key("symbol").Value(symbol);
          report.Key("count").Value(count);
          report.EndObject();
        }
        report.EndArray();
      }
      report.EndObject();
    }
    // Frames per detector invocation at the point the model actually ran.
    report.Key("detect_batch").BeginObject();
    WriteFrameHistogramStats(
        report, FindHistogram(snapshot, "detect.invocation_frames"));
    report.EndObject();
    report.EndObject();
  }
  report.EndArray();
  // Per-clip digests and the fault-recovery outcome of the LAST run (the
  // highest worker count). In a fault-free run failed_clips is empty and
  // the digests match any other fault-free invocation — check.sh --faults
  // leans on both properties.
  report.Key("clip_digests").BeginArray();
  for (size_t i = 0; i < last_results.size(); ++i) {
    const otif::core::PipelineResult& r = last_results[i];
    report.BeginObject();
    report.Key("clip").Value(static_cast<int64_t>(i));
    report.Key("digest").Value(otif::StrFormat(
        "%016llx", static_cast<unsigned long long>(ResultDigest(r))));
    report.Key("failed").Value(!r.status.ok());
    report.Key("degraded").Value(r.proxy_degraded);
    report.EndObject();
  }
  report.EndArray();
  report.Key("failed_clips").BeginArray();
  for (size_t i = 0; i < last_results.size(); ++i) {
    const otif::core::PipelineResult& r = last_results[i];
    if (r.status.ok()) continue;
    report.BeginObject();
    report.Key("clip").Value(static_cast<int64_t>(i));
    report.Key("status").Value(r.status.ToString());
    report.Key("retries").Value(r.retries);
    report.EndObject();
  }
  report.EndArray();
  report.Key("telemetry").RawValue(otif::telemetry::SnapshotToJson(snapshot));
  report.EndObject();
  std::printf("%s\n", std::move(report).TakeString().c_str());
  std::fflush(stdout);

  // Induced-stall hook for the check.sh watchdog smoke test: begin a
  // synthetic run, commit one frame, then sit idle so /healthz flips to
  // stalled once OTIF_STALL_SEC passes without another commit.
  if (const char* stall_env = std::getenv("OTIF_BENCH_STALL_SEC")) {
    const double stall_seconds = std::atof(stall_env);
    if (stall_seconds > 0.0) {
      otif::obs::SetProgressEnabled(true);
      otif::obs::RunProgress::Global().BeginRun("induced_stall",
                                                std::vector<int64_t>{2});
      otif::obs::RunProgress::Global().OnFramesCommitted(0, 1);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(stall_seconds));
      otif::obs::RunProgress::Global().EndRun();
    }
  }
  otif::ThreadPool::SetDefaultThreads(1);
  return 0;
}
