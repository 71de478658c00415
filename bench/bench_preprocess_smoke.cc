// What OTIF is for, at smoke size: a cold Otif::Prepare on Warsaw, then
// Execute over unseen clips with every OTIF mechanism on. tools/check.sh
// and tools/chaos_matrix.sh run their introspection, profiler, timeline and
// fault-injection smokes over this program.
//
// Usage: bench_preprocess_smoke [clips] [clip_seconds]
//
// Prepare is sized by bench::BenchScale() (OTIF_BENCH_SCALE=tiny|large),
// which also applies the observability switches every bench honours
// (OTIF_METRICS_PORT, OTIF_TRACE_TIMELINE, OTIF_PROFILE, OTIF_FAULTS,
// ...). Execute then extracts `clips` test-split clips of `clip_seconds`
// each (default 4 of 30 s) under perfbench's extraction configuration.
//
// Prints one JSON report on stdout:
//   prepare_digest  FNV-1a over theta_best and the tuner's curve;
//   clip_digests    [{clip, digest, failed, degraded}], FNV-1a over every
//                   field of each clip's extracted tracks;
//   failed_clips    [{clip, status, retries}]: clips fault recovery
//                   quarantined;
//   degraded_clips  clips whose proxy fell back to full-frame detection.
// So a run under OTIF_FAULTS can be diffed against a fault-free one clip by
// clip.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/otif.h"
#include "eval/workload.h"
#include "obs/introspection_server.h"
#include "sim/world.h"
#include "util/json_writer.h"
#include "util/strings.h"

namespace otif {
namespace {

// --- 64-bit FNV-1a -------------------------------------------------------------

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;

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

std::string Hex(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

/// What Prepare decided: theta_best and the tuner's curve (the same bytes
/// perfbench hashes).
uint64_t PrepareDigest(const core::Otif& otif) {
  uint64_t h = kFnvOffsetBasis;
  const auto add_string = [&h](const std::string& s) {
    DigestBytes(&h, s.data(), s.size());
  };
  add_string(otif.theta_best().ToString());
  for (const core::TunerPoint& p : otif.curve()) {
    add_string(p.config.ToString());
    DigestValue(&h, p.val_seconds);
    DigestValue(&h, p.val_accuracy);
  }
  return h;
}

/// Every field of one clip's extracted tracks (the same fields perfbench
/// hashes).
uint64_t TracksDigest(const std::vector<track::Track>& tracks) {
  uint64_t h = kFnvOffsetBasis;
  for (const track::Track& t : tracks) {
    DigestValue(&h, t.id);
    DigestValue(&h, t.cls);
    for (const track::Detection& d : t.detections) {
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

/// perfbench's extraction configuration: theta_best's detector, the largest
/// trained proxy at threshold 0.5, gap 2, the recurrent tracker, refine.
core::PipelineConfig ExtractionConfig(const core::PipelineConfig& best) {
  core::PipelineConfig c;
  c.detector_arch = best.detector_arch;
  c.detector_scale = best.detector_scale;
  c.detector_confidence = best.detector_confidence;
  c.use_proxy = true;
  c.proxy_resolution_index = 0;
  c.proxy_threshold = 0.5;
  c.sampling_gap = 2;
  c.tracker = core::TrackerKind::kRecurrent;
  c.refine = true;
  return c;
}

int Main(int argc, char** argv) {
  obs::InitFromEnv();
  const core::RunScale scale = bench::BenchScale();
  const int num_clips = argc > 1 ? std::atoi(argv[1]) : 4;
  const int clip_seconds = argc > 2 ? std::atoi(argv[2]) : 30;
  if (argc > 3 || num_clips < 1 || clip_seconds < 1) {
    std::fprintf(stderr, "usage: %s [clips] [clip_seconds]\n", argv[0]);
    return 2;
  }

  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kWarsaw);
  const sim::DatasetSpec& spec = workload.spec;
  core::Otif otif(spec, scale);
  const std::vector<sim::Clip> valid = otif.ValidClips();
  otif.Prepare(workload.MakeAccuracyFn(&valid), core::Tuner::Options{});

  std::vector<sim::Clip> clips;
  for (int i = 0; i < num_clips; ++i) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 2, i),
                                      clip_seconds * spec.fps));
  }
  const core::EvalResult result =
      otif.Execute(ExtractionConfig(otif.theta_best()), clips,
                   workload.MakeAccuracyFn(&clips));

  std::vector<bool> failed(clips.size(), false);
  std::vector<bool> degraded(clips.size(), false);
  for (const core::FailedClip& f : result.failed_clips) {
    failed[static_cast<size_t>(f.clip_index)] = true;
  }
  for (const int clip : result.degraded_clips) {
    degraded[static_cast<size_t>(clip)] = true;
  }

  JsonWriter report;
  report.BeginObject();
  report.Key("prepare_digest").Value(Hex(PrepareDigest(otif)));
  report.Key("clip_digests").BeginArray();
  for (size_t i = 0; i < clips.size(); ++i) {
    report.BeginObject();
    report.Key("clip").Value(static_cast<int64_t>(i));
    report.Key("digest").Value(Hex(TracksDigest(result.tracks_per_clip[i])));
    report.Key("failed").Value(static_cast<bool>(failed[i]));
    report.Key("degraded").Value(static_cast<bool>(degraded[i]));
    report.EndObject();
  }
  report.EndArray();
  report.Key("failed_clips").BeginArray();
  for (const core::FailedClip& f : result.failed_clips) {
    report.BeginObject();
    report.Key("clip").Value(f.clip_index);
    report.Key("status").Value(f.status.ToString());
    report.Key("retries").Value(f.retries);
    report.EndObject();
  }
  report.EndArray();
  report.Key("degraded_clips").BeginArray();
  for (const int clip : result.degraded_clips) report.Value(clip);
  report.EndArray();
  report.EndObject();
  std::printf("%s\n", std::move(report).TakeString().c_str());
  return 0;
}

}  // namespace
}  // namespace otif

int main(int argc, char** argv) { return otif::Main(argc, argv); }
