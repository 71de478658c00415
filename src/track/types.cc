#include "track/types.h"

#include <algorithm>

#include "util/logging.h"

namespace otif::track {

int Track::StartFrame() const {
  OTIF_CHECK(!detections.empty());
  return detections.front().frame;
}

int Track::EndFrame() const {
  OTIF_CHECK(!detections.empty());
  return detections.back().frame;
}

int Track::DurationFrames() const {
  if (detections.empty()) return 0;
  return EndFrame() - StartFrame() + 1;
}

std::vector<geom::Point> Track::CenterPolyline() const {
  std::vector<geom::Point> pts;
  pts.reserve(detections.size());
  for (const Detection& d : detections) pts.push_back(d.box.Center());
  return pts;
}

geom::BBox Track::InterpolatedBoxAt(int frame) const {
  OTIF_CHECK(!detections.empty());
  if (frame <= detections.front().frame) return detections.front().box;
  if (frame >= detections.back().frame) return detections.back().box;
  // Find the first detection at or after `frame`.
  const auto it = std::lower_bound(
      detections.begin(), detections.end(), frame,
      [](const Detection& d, int f) { return d.frame < f; });
  const Detection& hi = *it;
  if (hi.frame == frame || it == detections.begin()) return hi.box;
  const Detection& lo = *(it - 1);
  const double u = static_cast<double>(frame - lo.frame) /
                   static_cast<double>(hi.frame - lo.frame);
  return geom::BBox(lo.box.cx + u * (hi.box.cx - lo.box.cx),
                    lo.box.cy + u * (hi.box.cy - lo.box.cy),
                    lo.box.w + u * (hi.box.w - lo.box.w),
                    lo.box.h + u * (hi.box.h - lo.box.h));
}

double Track::MeanSpeedPxPerFrame() const {
  if (detections.size() < 2) return 0.0;
  double dist = 0.0;
  for (size_t i = 1; i < detections.size(); ++i) {
    dist += detections[i].box.Center().DistanceTo(
        detections[i - 1].box.Center());
  }
  const int frames = EndFrame() - StartFrame();
  if (frames <= 0) return 0.0;
  return dist / frames;
}

}  // namespace otif::track
