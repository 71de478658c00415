#ifndef OTIF_TESTS_TRACK_PINNED_TRACKS_H_
#define OTIF_TESTS_TRACK_PINNED_TRACKS_H_

// Input and digest of the tracker pins: every tracker's tracks over one
// fixed synthetic clip are pinned bit for bit, so a change that moves any
// track (its id, detections or order) fails the pin.

#include <cstdint>
#include <type_traits>
#include <vector>

#include "models/detector.h"
#include "sim/dataset.h"
#include "sim/world.h"
#include "track/types.h"

namespace otif::track::pins {

/// The pinned clip: 200 frames of the synthetic preset.
inline const sim::Clip& Clip() {
  static const sim::Clip* clip = [] {
    const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
    return new sim::Clip(sim::SimulateClip(spec, sim::ClipSeed(spec, 2, 0),
                                           200));
  }();
  return *clip;
}

/// A busier pinned clip: 60 frames of the Warsaw preset, about 13
/// detections per frame. On the synthetic clip every tracker gives the same
/// tracks at gap 1, so its pins fix only the lifecycle; here the matchers'
/// choices differ at gap 1 too.
inline const sim::Clip& WarsawClip() {
  static const sim::Clip* clip = [] {
    const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kWarsaw);
    return new sim::Clip(sim::SimulateClip(spec, sim::ClipSeed(spec, 2, 0),
                                           60));
  }();
  return *clip;
}

/// YOLOv3 detections of `clip` at full scale, kept at confidence 0.4, on
/// every `gap`-th frame: one entry per processed frame.
inline std::vector<FrameDetections> SampledDetections(const sim::Clip& clip,
                                                      int gap) {
  const models::SimulatedDetector detector(
      models::ArchByName(models::StandardDetectorArchs(), "yolov3"));
  std::vector<FrameDetections> frames;
  for (int f = 0; f < clip.num_frames(); f += gap) {
    frames.push_back(
        models::FilterByConfidence(detector.Detect(clip, f, 1.0), 0.4));
  }
  return frames;
}

/// SampledDetections of the synthetic Clip().
inline std::vector<FrameDetections> SampledDetections(int gap) {
  return SampledDetections(Clip(), gap);
}

/// 64-bit FNV-1a over the fields perfbench's TracksDigest hashes.
inline uint64_t TracksDigest(const std::vector<Track>& tracks) {
  uint64_t h = 14695981039346656037ull;
  const auto add = [&h](const auto& value) {
    static_assert(std::is_trivially_copyable_v<
                  std::remove_cvref_t<decltype(value)>>);
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(value); ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const Track& t : tracks) {
    add(t.id);
    add(t.cls);
    for (const Detection& d : t.detections) {
      add(d.frame);
      add(d.box.cx);
      add(d.box.cy);
      add(d.box.w);
      add(d.box.h);
      add(d.cls);
      add(d.confidence);
    }
  }
  return h;
}

}  // namespace otif::track::pins

#endif  // OTIF_TESTS_TRACK_PINNED_TRACKS_H_
