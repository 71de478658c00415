// One process of the OTIF pre-processing benchmark (see README.md beside
// this file; run.py drives it and aggregates across processes).
//
// Every process does what a user pre-processing a dataset does, from a cold
// start: simulate the dataset's clips, run Otif::Prepare, then extract the
// tracks of a larger set of unseen test clips with Otif::Execute under one
// fixed configuration that has every OTIF mechanism on. The program is
// driven from outside through its public calls only.
//
//   preprocess_bench --workload NAME [--window N] [--dataset-seed N]
//                    [--trace 0|1] [--spans PATH] [--scale full|tiny]
//
// The set-up always samples the dataset preset (or --dataset-seed) the same
// way. Extraction runs over window N of the dataset's unseen test clips:
// one-minute clips [N * n, N * n + n), n fixed per workload.
//
// --trace 0 (end to end): telemetry off. One cold set-up, then one timed
//   Execute call over the window.
// --trace 1 (per layer): the program's existing telemetry on during
//   Prepare and one Execute of the window, after untraced calls that give
//   its overhead baseline, plus diagnostics that call single layers
//   directly. The benchmark records its own spans around its calls and
//   writes them to --spans at exit.
//
// Prints one JSON object on stdout.

#include <sched.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/best_config.h"
#include "core/otif.h"
#include "core/pipeline.h"
#include "eval/workload.h"
#include "mem/buffer_pool.h"
#include "models/cost_model.h"
#include "models/detector.h"
#include "models/proxy.h"
#include "models/tracker_net.h"
#include "sim/dataset.h"
#include "sim/raster.h"
#include "track/recurrent_tracker.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace {

using namespace otif;  // NOLINT: one-file benchmark program.
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  sim::DatasetId dataset;
  /// One-minute test clips extracted per Execute call.
  int extract_clips;
  /// Extraction clips the recurrent-tracker diagnostic replays.
  int recurrent_clips;
};

// Warsaw: busy 1280x720 junction, objects in every frame; the recurrent
// tracker dominates. Caldot1: sparse 720x480 highway with small objects;
// proxy rendering, scoring and training dominate.
constexpr Workload kWorkloads[] = {
    {"preprocess_warsaw", sim::DatasetId::kWarsaw, 8, 2},
    {"preprocess_caldot1", sim::DatasetId::kCaldot1, 32, 4},
};

constexpr int kExtractClipSeconds = 60;

/// Set-up size of the table benches: 3 train and 3 valid clips of 16 s, 300
/// proxy steps at 3 resolutions, 700 tracker steps. "tiny" is the
/// seconds-scale size of run.py's self-test.
core::RunScale SetupScale(bool tiny) {
  core::RunScale s;
  s.train_clips = tiny ? 2 : 3;
  s.valid_clips = tiny ? 1 : 3;
  s.clip_seconds = tiny ? 10 : 16;
  s.proxy_train_steps = tiny ? 150 : 300;
  s.tracker_train_steps = tiny ? 200 : 700;
  s.proxy_resolutions = tiny ? 2 : 3;
  return s;
}

/// The fixed extraction configuration: theta_best's detector (chosen with
/// SORT before any training, so training numerics cannot change it) with
/// every OTIF mechanism switched on. Fixed rather than the tuner's pick so
/// a change to training numerics cannot silently change what is extracted.
core::PipelineConfig ExtractionConfig(const core::Otif& otif) {
  const core::PipelineConfig& best = otif.theta_best();
  core::PipelineConfig c;
  c.detector_arch = best.detector_arch;
  c.detector_scale = best.detector_scale;
  c.detector_confidence = best.detector_confidence;
  c.use_proxy = true;
  c.proxy_resolution_index = 0;  // Largest trained resolution.
  c.proxy_threshold = 0.5;
  c.sampling_gap = 2;
  c.tracker = core::TrackerKind::kRecurrent;
  c.refine = true;
  return c;
}

// --- Output digests ----------------------------------------------------------

/// 64-bit FNV-1a over every field of the extracted tracks.
class Fnv1a {
 public:
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

uint64_t TracksDigest(const std::vector<track::Track>& tracks) {
  Fnv1a h;
  for (const track::Track& t : tracks) {
    h.Add(t.id);
    h.Add(t.cls);
    for (const track::Detection& d : t.detections) {
      h.Add(d.frame);
      h.Add(d.box.cx);
      h.Add(d.box.cy);
      h.Add(d.box.w);
      h.Add(d.box.h);
      h.Add(d.cls);
      h.Add(d.confidence);
    }
  }
  return h.value();
}

std::vector<uint64_t> ClipDigests(
    const std::vector<std::vector<track::Track>>& per_clip) {
  std::vector<uint64_t> out;
  for (const auto& tracks : per_clip) out.push_back(TracksDigest(tracks));
  return out;
}

uint64_t RunDigest(const std::vector<uint64_t>& clip_digests) {
  Fnv1a h;
  for (uint64_t d : clip_digests) h.Add(d);
  return h.value();
}

std::string Hex(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

// --- Process measurements ----------------------------------------------------

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

CpuTimes ProcessCpu() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return {sec(u.ru_utime), sec(u.ru_stime)};
}

double PeakRssMiB() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Telemetry deltas --------------------------------------------------------

double SpanTotal(const telemetry::TelemetrySnapshot& s, const char* name) {
  const telemetry::SpanSample* span = telemetry::FindSpan(s, name);
  return span != nullptr ? span->total_seconds : 0.0;
}

int64_t CounterValue(const telemetry::TelemetrySnapshot& s, const char* name) {
  const telemetry::CounterSample* c = telemetry::FindCounter(s, name);
  return c != nullptr ? c->value : 0;
}

std::pair<int64_t, double> HistogramCountSum(
    const telemetry::TelemetrySnapshot& s, const char* name) {
  for (const telemetry::HistogramSample& h : s.histograms) {
    if (h.name == name) return {h.count, h.sum};
  }
  return {0, 0.0};
}

/// Snapshot pair around one phase.
struct PhaseDelta {
  telemetry::TelemetrySnapshot before, after;
  double Span(const char* name) const {
    return SpanTotal(after, name) - SpanTotal(before, name);
  }
  int64_t Counter(const char* name) const {
    return CounterValue(after, name) - CounterValue(before, name);
  }
  std::pair<int64_t, double> Histogram(const char* name) const {
    const auto a = HistogramCountSum(after, name);
    const auto b = HistogramCountSum(before, name);
    return {a.first - b.first, a.second - b.second};
  }
};

// --- Benchmark spans ---------------------------------------------------------

/// The benchmark's own spans around its calls into the program: kept in
/// memory and written out at exit. The benchmark calls the program from one
/// thread, so spans nest strictly and a span's self time is its duration
/// minus its children's.
class SpanLog {
 public:
  explicit SpanLog(std::string run_id)
      : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  int Begin(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), Now(), -1.0});
    open_.push_back(id);
    return id;
  }

  void End(int id) {
    OTIF_CHECK(!open_.empty() && open_.back() == id);
    spans_[static_cast<size_t>(id)].end_s = Now();
    open_.pop_back();
  }

  bool WriteJson(const std::string& path) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Record& r : spans_) {
      if (r.parent >= 0) child_s[static_cast<size_t>(r.parent)] += r.end_s - r.start_s;
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("run_id").Value(run_id_);
    w.Key("spans").BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      w.BeginObject();
      w.Key("run_id").Value(run_id_);
      w.Key("id").Value(static_cast<int64_t>(i));
      w.Key("parent").Value(r.parent);
      w.Key("name").Value(r.name);
      w.Key("start_s").Value(r.start_s);
      w.Key("end_s").Value(r.end_s);
      w.Key("self_s").Value(r.end_s - r.start_s - child_s[i]);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream out(path);
    out << std::move(w).TakeString() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Record {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };

  double Now() const { return SecondsSince(origin_); }

  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

class ScopedBenchSpan {
 public:
  ScopedBenchSpan(SpanLog* log, const char* name)
      : log_(log), id_(log->Begin(name)) {}
  ~ScopedBenchSpan() { log_->End(id_); }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// --- Shared set-up -------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  int window = 0;
  uint64_t dataset_seed = 0;
  bool dataset_seed_given = false;
  bool trace = false;
  bool tiny = false;
  std::string spans_path = "spans.json";
};

struct Setup {
  eval::TrackWorkload track_workload;
  int first_extract_clip = 0;
  std::unique_ptr<core::Otif> otif;
  std::vector<sim::Clip> valid;
  core::AccuracyFn valid_accuracy;
  std::vector<sim::Clip> extract;
  core::AccuracyFn extract_accuracy;
};

Setup MakeSetup(const Args& args) {
  Setup s;
  s.track_workload = eval::MakeTrackWorkload(args.workload->dataset);
  if (args.dataset_seed_given) s.track_workload.spec.seed = args.dataset_seed;
  s.otif = std::make_unique<core::Otif>(s.track_workload.spec,
                                        SetupScale(args.tiny));
  return s;
}

/// Simulates the validation clips (the tuner's accuracy target) and the
/// unseen test clips this process extracts: window `args.window` of the
/// test split, in windows of the workload's clip count.
void SimulateEvalClips(const Args& args, Setup* s) {
  s->valid = s->otif->ValidClips();
  s->valid_accuracy = s->track_workload.MakeAccuracyFn(&s->valid);
  const sim::DatasetSpec& spec = s->track_workload.spec;
  const int clips = args.tiny ? 2 : args.workload->extract_clips;
  const int frames = (args.tiny ? 30 : kExtractClipSeconds) * spec.fps;
  s->first_extract_clip = args.window * clips;
  for (int i = 0; i < clips; ++i) {
    s->extract.push_back(sim::SimulateClip(
        spec, sim::ClipSeed(spec, 2, s->first_extract_clip + i), frames));
  }
  s->extract_accuracy = s->track_workload.MakeAccuracyFn(&s->extract);
}

/// Digest of what Prepare decided: theta_best and the tuner's curve.
std::string PrepareDigest(const core::Otif& otif) {
  Fnv1a h;
  const auto add_string = [&h](const std::string& str) {
    for (char c : str) h.Add(c);
  };
  add_string(otif.theta_best().ToString());
  for (const core::TunerPoint& p : otif.curve()) {
    add_string(p.config.ToString());
    h.Add(p.val_seconds);
    h.Add(p.val_accuracy);
  }
  return Hex(h.value());
}

int64_t TotalFrames(const std::vector<sim::Clip>& clips) {
  int64_t n = 0;
  for (const sim::Clip& c : clips) n += c.num_frames();
  return n;
}

int64_t TotalTracks(const core::EvalResult& r) {
  int64_t n = 0;
  for (const auto& tracks : r.tracks_per_clip) n += static_cast<int64_t>(tracks.size());
  return n;
}

void WriteHost(JsonWriter& w) {
  const int width = ThreadPool::Default()->num_threads();
  w.Key("host").BeginObject();
  w.Key("nproc").Value(OnlineCpus());
  w.Key("hardware_concurrency")
      .Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("pool_width").Value(width);
  // StreamingOptions' documented default with no OTIF_* knob set.
  w.Key("stage_workers").Value(std::max(1, width / 2));
  w.Key("compiler").Value(PERFBENCH_COMPILER);
  w.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
  w.Key("executor").Value(core::ExecutorKindName(core::ExecutorKindFromEnv()));
  w.Key("telemetry").Value(telemetry::Enabled());
  w.EndObject();
}

void WriteRunInfo(JsonWriter& w, const Args& args, const Setup& s,
                  const core::PipelineConfig& config) {
  w.Key("workload").Value(args.workload->name);
  w.Key("dataset_seed").Value(s.track_workload.spec.seed);
  w.Key("window").Value(args.window);
  w.Key("first_extract_clip").Value(s.first_extract_clip);
  w.Key("extract_clips").Value(static_cast<int64_t>(s.extract.size()));
  w.Key("extract_frames").Value(TotalFrames(s.extract));
  w.Key("theta_best").Value(s.otif->theta_best().ToString());
  w.Key("prepare_digest").Value(PrepareDigest(*s.otif));
  w.Key("extract_config").Value(config.ToString());
  WriteHost(w);
}

/// Digests of the extracted tracks per clip, and one over all of them.
void WriteDigests(JsonWriter& w, const core::EvalResult& r) {
  const std::vector<uint64_t> clips = ClipDigests(r.tracks_per_clip);
  w.Key("digest").Value(Hex(RunDigest(clips)));
  w.Key("clip_digests").BeginArray();
  for (uint64_t d : clips) w.Value(Hex(d));
  w.EndArray();
  w.Key("clip_tracks").BeginArray();
  for (const auto& tracks : r.tracks_per_clip) {
    w.Value(static_cast<int64_t>(tracks.size()));
  }
  w.EndArray();
}

// --- End-to-end mode -----------------------------------------------------------

int RunEndToEnd(const Args& args) {
  telemetry::SetEnabled(false);
  const Clock::time_point start = Clock::now();
  Setup s = MakeSetup(args);
  SimulateEvalClips(args, &s);
  s.otif->Prepare(s.valid_accuracy, core::Tuner::Options{});
  const double setup_s = SecondsSince(start);

  const core::PipelineConfig config = ExtractionConfig(*s.otif);
  const Clock::time_point t = Clock::now();
  const core::EvalResult r =
      s.otif->Execute(config, s.extract, s.extract_accuracy);
  const double extract_s = SecondsSince(t);

  JsonWriter w;
  w.BeginObject();
  w.Key("mode").Value("e2e");
  WriteRunInfo(w, args, s, config);
  w.Key("setup_s").Value(setup_s);
  w.Key("extract_s").Value(extract_s);
  w.Key("extract_accuracy").Value(r.accuracy);
  w.Key("extract_sim_s").Value(r.clock.TotalSeconds());
  w.Key("extract_tracks").Value(TotalTracks(r));
  w.Key("clip_ops").Value(static_cast<int64_t>(s.extract.size()));
  WriteDigests(w, r);
  w.Key("peak_rss_mb").Value(PeakRssMiB());
  w.EndObject();
  std::printf("%s\n", std::move(w).TakeString().c_str());
  return 0;
}

// --- Traced mode ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Single-thread Pipeline::Run over every extraction clip.
struct PipelineRuns {
  std::vector<double> clip_s;
  std::vector<std::vector<track::Track>> tracks;
};

PipelineRuns RunPipelinePerClip(SpanLog* log, const core::PipelineConfig& config,
                                const core::TrainedModels& trained,
                                const std::vector<sim::Clip>& clips) {
  PipelineRuns out;
  const core::Pipeline pipeline(config, &trained);
  for (const sim::Clip& clip : clips) {
    ScopedBenchSpan span(log, "core.pipeline.run");
    const Clock::time_point t = Clock::now();
    core::PipelineResult r = pipeline.Run(clip);
    out.clip_s.push_back(SecondsSince(t));
    out.tracks.push_back(std::move(r.tracks));
  }
  return out;
}

/// TrainProxyModel at the largest trained resolution on frames rendered
/// beforehand from the train clips, labelled by theta_best's detector as
/// Otif::Prepare labels them. Returns ms per step.
double ProxyTrainMsPerStep(SpanLog* log, const core::Otif& otif,
                           const sim::DatasetSpec& spec, int steps) {
  const std::vector<sim::Clip> train = otif.TrainClips();
  const core::PipelineConfig& best = otif.theta_best();
  const models::SimulatedDetector detector(
      models::ArchByName(models::StandardDetectorArchs(), best.detector_arch));
  const models::ProxyResolution res = otif.trained().proxies[0]->resolution();
  models::ProxyModel proxy(res, spec.seed * 13);

  std::vector<models::ProxySample> samples;
  Rng rng(spec.seed * 977 + 1);
  std::vector<std::unique_ptr<sim::Rasterizer>> rasters;
  for (const sim::Clip& clip : train) {
    rasters.push_back(std::make_unique<sim::Rasterizer>(&clip));
  }
  for (int attempt = 0; attempt < 4096 && samples.size() < 64; ++attempt) {
    const size_t ci = static_cast<size_t>(rng.UniformInt(train.size()));
    const int f = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(train[ci].num_frames())));
    const track::FrameDetections dets = models::FilterByConfidence(
        detector.Detect(train[ci], f, best.detector_scale),
        best.detector_confidence);
    if (dets.empty() && attempt < 2048) continue;
    models::ProxySample sample;
    sample.frame = rasters[ci]->Render(f, res.raster_w(), res.raster_h());
    sample.labels = proxy.MakeLabels(dets, spec.width, spec.height);
    samples.push_back(std::move(sample));
  }
  OTIF_CHECK(!samples.empty());

  size_t next = 0;
  ScopedBenchSpan span(log, "models.proxy_train");
  const Clock::time_point t = Clock::now();
  models::TrainProxyModel(
      &proxy, [&] { return samples[next++ % samples.size()]; }, steps);
  return 1e3 * SecondsSince(t) / steps;
}

/// Replays full-frame detections of the first extraction clips at gap 2
/// through RecurrentTracker; detections and appearance statistics are
/// computed before the timer. Returns {ns per pair, pairs}.
std::pair<double, int64_t> RecurrentNsPerPair(
    SpanLog* log, const core::Otif& otif, const core::PipelineConfig& config,
    const std::vector<sim::Clip>& clips, int num_clips) {
  const models::SimulatedDetector detector(models::ArchByName(
      models::StandardDetectorArchs(), config.detector_arch));
  const models::ProxyResolution res = otif.trained().proxies[0]->resolution();
  struct Frame {
    int index;
    track::FrameDetections dets;
    std::vector<std::pair<double, double>> appearance;
  };
  std::vector<std::vector<Frame>> per_clip;
  const size_t n = std::min(clips.size(), static_cast<size_t>(num_clips));
  for (size_t c = 0; c < n; ++c) {
    const sim::Clip& clip = clips[c];
    sim::Rasterizer raster(&clip);
    std::vector<Frame> frames;
    for (int f = 0; f < clip.num_frames(); f += config.sampling_gap) {
      Frame fr{f,
               models::FilterByConfidence(
                   detector.Detect(clip, f, config.detector_scale),
                   config.detector_confidence),
               {}};
      const video::Image low = raster.Render(f, res.raster_w(), res.raster_h());
      for (const track::Detection& d : fr.dets) {
        fr.appearance.push_back(models::TrackerNet::AppearanceStats(
            low, d.box, clip.spec().width, clip.spec().height));
      }
      frames.push_back(std::move(fr));
    }
    per_clip.push_back(std::move(frames));
  }

  int64_t pairs = 0;
  ScopedBenchSpan span(log, "track.recurrent");
  const Clock::time_point t = Clock::now();
  for (size_t c = 0; c < per_clip.size(); ++c) {
    const sim::DatasetSpec& spec = clips[c].spec();
    track::RecurrentTracker::Options opts;
    opts.frame_w = spec.width;
    opts.frame_h = spec.height;
    opts.fps = spec.fps;
    track::RecurrentTracker tracker(otif.trained().tracker_net.get(), opts);
    for (const Frame& fr : per_clip[c]) {
      tracker.ProcessFrameWithAppearance(fr.index, fr.dets, fr.appearance);
    }
    tracker.Finish(2);
    pairs += tracker.pair_scores_computed();
  }
  const double wall = SecondsSince(t);
  return {pairs > 0 ? 1e9 * wall / static_cast<double>(pairs) : 0.0, pairs};
}

/// Untraced Execute calls that give the traced call its overhead baseline.
constexpr int kUntracedReps = 2;

int RunTraced(const Args& args) {
  const std::string run_id =
      StrFormat("%s-window%d-%lld", args.workload->name, args.window,
                static_cast<long long>(
                    std::chrono::system_clock::now().time_since_epoch().count()));
  SpanLog log(run_id);
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };

  telemetry::SetEnabled(true);
  const int run_span = log.Begin("run");
  Setup s = MakeSetup(args);
  const int setup_span = log.Begin("setup");
  {
    ScopedBenchSpan span(&log, "sim.simulate");
    const Clock::time_point t = Clock::now();
    // Timed only: Prepare simulates the train split again itself.
    const std::vector<sim::Clip> train = s.otif->TrainClips();
    SimulateEvalClips(args, &s);
    add("sim.simulate_s", SecondsSince(t), "s");
  }
  const std::vector<sim::Clip>& clips = s.extract;
  const core::AccuracyFn& accuracy_fn = s.extract_accuracy;
  PhaseDelta prep;
  const CpuTimes cpu0 = ProcessCpu();
  prep.before = telemetry::CaptureSnapshot();
  {
    ScopedBenchSpan span(&log, "core.prepare");
    s.otif->Prepare(s.valid_accuracy, core::Tuner::Options{});
  }
  prep.after = telemetry::CaptureSnapshot();
  const CpuTimes cpu1 = ProcessCpu();
  log.End(setup_span);

  add("core.tuner.wall_s",
      prep.Span("tuner/cache_detection") + prep.Span("tuner/cache_proxy") +
          prep.Span("tuner/round"),
      "s");
  add("core.tuner.evaluations",
      static_cast<double>(prep.Counter("tuner.evaluations")), "count");
  add("core.tuner.track_busy_s", prep.Span("stage/track"), "s");
  const int64_t hits = prep.Counter("proxy_cache.hits");
  const int64_t lookups = hits + prep.Counter("proxy_cache.misses");
  add("core.tuner.proxy_cache_lookups", static_cast<double>(lookups), "count");
  add("core.tuner.proxy_cache_hit_rate",
      lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "fraction");
  const core::TunerPoint& tuned = s.otif->FastestWithinTolerance(0.05);
  add("core.tuner.tuned_sim_s", tuned.val_seconds, "sim_s");
  add("core.tuner.tuned_accuracy", tuned.val_accuracy, "fraction");
  add("proc.setup_user_s", cpu1.user_s - cpu0.user_s, "s");
  add("proc.setup_sys_s", cpu1.sys_s - cpu0.sys_s, "s");

  // Extraction: untraced calls give the overhead baseline, then one call
  // with the program's telemetry on gives the per-stage busy times.
  const core::PipelineConfig config = ExtractionConfig(*s.otif);
  const core::TrainedModels& trained = s.otif->trained();
  const int extract_span = log.Begin("extract");
  telemetry::SetEnabled(false);
  std::vector<double> untraced;
  for (int rep = 0; rep < kUntracedReps; ++rep) {
    ScopedBenchSpan span(&log, "core.execute.untraced");
    trained.proxy_cache.Clear();
    const Clock::time_point t = Clock::now();
    s.otif->Execute(config, clips, accuracy_fn);
    untraced.push_back(SecondsSince(t));
  }
  const double untraced_s = Median(untraced);
  telemetry::SetEnabled(true);
  trained.proxy_cache.Clear();
  PhaseDelta ex;
  const CpuTimes cpu2 = ProcessCpu();
  const mem::BufferPool::Stats pool0 = mem::BufferPool::Global().GetStats();
  ex.before = telemetry::CaptureSnapshot();
  core::EvalResult result;
  double traced_s = 0.0;
  {
    ScopedBenchSpan span(&log, "core.execute");
    const Clock::time_point t = Clock::now();
    result = s.otif->Execute(config, clips, accuracy_fn);
    traced_s = SecondsSince(t);
  }
  ex.after = telemetry::CaptureSnapshot();
  const mem::BufferPool::Stats pool1 = mem::BufferPool::Global().GetStats();
  const CpuTimes cpu3 = ProcessCpu();
  telemetry::SetEnabled(false);
  log.End(extract_span);

  add("core.execute.untraced_s", untraced_s, "s");
  add("core.execute.traced_s", traced_s, "s");
  add("trace.overhead_frac", traced_s / untraced_s - 1.0, "fraction");
  add("core.stage.proxy_busy_s", ex.Span("stage/proxy"), "s");
  add("core.stage.detect_busy_s", ex.Span("stage/detect"), "s");
  add("core.stage.track_busy_s", ex.Span("stage/track"), "s");
  add("core.stage.refine_busy_s", ex.Span("stage/refine"), "s");
  add("sim.render_busy_s", ex.Span("proxy/render"), "s");
  add("models.proxy_score_busy_s", ex.Span("proxy/score"), "s");
  const auto [invocations, detect_frames] =
      ex.Histogram("detect.invocation_frames");
  add("core.executor.detect_invocations", static_cast<double>(invocations),
      "count");
  add("core.executor.detect_batch_mean",
      invocations > 0 ? detect_frames / invocations : 0.0, "frames");
  add("proc.extract_user_s", cpu3.user_s - cpu2.user_s, "s");
  add("proc.extract_sys_s", cpu3.sys_s - cpu2.sys_s, "s");
  const int64_t acquires =
      (pool1.hits + pool1.misses) - (pool0.hits + pool0.misses);
  add("mem.pool.acquires", static_cast<double>(acquires), "count");
  add("mem.pool.miss_rate",
      acquires > 0 ? static_cast<double>(pool1.misses - pool0.misses) / acquires
                   : 0.0,
      "fraction");

  const int64_t sampled = ex.Counter("pipeline.frames");
  const models::SimulatedDetector detector(models::ArchByName(
      models::StandardDetectorArchs(), config.detector_arch));
  const double full_frame_s =
      detector.FullFrameSeconds(clips.front(), config.detector_scale);
  const double detect_sim_s =
      result.clock.Seconds(models::CostCategory::kDetect);
  add("core.funnel.frames", static_cast<double>(TotalFrames(clips)),
      "count");
  add("core.funnel.frames_sampled", static_cast<double>(sampled), "count");
  add("core.funnel.detections_kept",
      static_cast<double>(ex.Counter("pipeline.detections_kept")), "count");
  add("core.funnel.tracks", static_cast<double>(TotalTracks(result)), "count");
  add("core.funnel.detect_pixel_frac",
      sampled > 0 ? detect_sim_s / (static_cast<double>(sampled) * full_frame_s)
                  : 0.0,
      "fraction");
  for (int c = 0; c <= static_cast<int>(models::CostCategory::kRefine); ++c) {
    const auto cat = static_cast<models::CostCategory>(c);
    add(std::string("core.sim.") + models::CostCategoryName(cat) + "_s",
        result.clock.Seconds(cat), "sim_s");
  }

  // Diagnostics: single layers called directly, telemetry off.
  const int diag_span = log.Begin("diagnostics");
  {
    ScopedBenchSpan span(&log, "core.best_config");
    const Clock::time_point t = Clock::now();
    double accuracy = 0.0;
    core::SelectBestConfig(s.valid, s.valid_accuracy, &accuracy);
    add("core.best_config_s", SecondsSince(t), "s");
  }
  trained.proxy_cache.Clear();
  const PipelineRuns single = RunPipelinePerClip(&log, config, trained, clips);
  double clip_sum = 0.0;
  for (double v : single.clip_s) clip_sum += v;
  add("core.pipeline.clips", static_cast<double>(single.clip_s.size()), "count");
  add("core.pipeline.clip_s_median", Median(single.clip_s), "s");
  add("core.pipeline.clip_s_max",
      *std::max_element(single.clip_s.begin(), single.clip_s.end()), "s");
  add("core.pipeline.clip_s_sum", clip_sum, "s");
  add("util.parallel_speedup", clip_sum / untraced_s, "x");

  core::EvalResult serial;
  {
    ScopedBenchSpan span(&log, "core.executor.serial");
    trained.proxy_cache.Clear();
    const Clock::time_point t = Clock::now();
    serial = core::EvaluateConfigWith(core::ExecutorKind::kSerial, config,
                                      &trained, clips, accuracy_fn);
    add("core.executor.serial_path_s", SecondsSince(t), "s");
  }
  add("models.proxy_train_ms_per_step",
      ProxyTrainMsPerStep(&log, *s.otif, s.track_workload.spec,
                          args.tiny ? 10 : 300),
      "ms");
  const auto [ns_per_pair, pairs] = RecurrentNsPerPair(
      &log, *s.otif, config, clips, args.workload->recurrent_clips);
  add("track.recurrent_ns_per_pair", ns_per_pair, "ns");
  add("track.recurrent_pairs", static_cast<double>(pairs), "count");
  log.End(diag_span);
  log.End(run_span);

  // The executor bit-identity contract: Execute's per-clip tracks equal
  // single-thread Pipeline::Run's and the kSerial path's.
  const std::vector<uint64_t> reference = ClipDigests(single.tracks);
  const std::vector<uint64_t> got = ClipDigests(result.tracks_per_clip);
  const std::vector<uint64_t> serial_got = ClipDigests(serial.tracks_per_clip);
  int failed_clips = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    const bool ok = i < got.size() && i < serial_got.size() &&
                    got[i] == reference[i] && serial_got[i] == reference[i];
    failed_clips += ok ? 0 : 1;
  }
  const bool spans_written = log.WriteJson(args.spans_path);

  JsonWriter w;
  w.BeginObject();
  w.Key("mode").Value("traced");
  WriteRunInfo(w, args, s, config);
  w.Key("run_id").Value(run_id);
  w.Key("spans_path").Value(args.spans_path);
  w.Key("spans_written").Value(spans_written);
  w.Key("tuned_config").Value(tuned.config.ToString());
  w.Key("extract_accuracy").Value(result.accuracy);
  w.Key("extract_sim_s").Value(result.clock.TotalSeconds());
  w.Key("extract_tracks").Value(TotalTracks(result));
  w.Key("clip_ops").Value(static_cast<int64_t>(clips.size()));
  w.Key("clip_failures").Value(failed_clips);
  WriteDigests(w, result);
  w.Key("peak_rss_mb").Value(PeakRssMiB());
  w.Key("metrics").BeginObject();
  for (const Metric& metric : m) {
    w.Key(metric.name).BeginObject();
    w.Key("value").Value(metric.value);
    w.Key("unit").Value(metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", std::move(w).TakeString().c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--window") {
      args->window = std::atoi(value.c_str());
      if (args->window < 0 || args->window > (1 << 20)) {
        std::fprintf(stderr, "--window out of range\n");
        return false;
      }
    } else if (flag == "--dataset-seed") {
      args->dataset_seed = std::strtoull(value.c_str(), nullptr, 10);
      args->dataset_seed_given = true;
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag == "--scale") {
      args->tiny = value == "tiny";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload == nullptr) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  return args.trace ? RunTraced(args) : RunEndToEnd(args);
}
