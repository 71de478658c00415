#ifndef OTIF_BASELINES_TASTI_H_
#define OTIF_BASELINES_TASTI_H_

#include "baselines/frame_query.h"
#include "models/embedding.h"

namespace otif::baselines {

/// TASTI (Kang et al.): a query-agnostic per-frame embedding index built
/// once (expensive: every frame at 224x224), plus a cheap query-specific
/// scoring model — k-nearest-neighbor regression (k = 8) from labeled
/// reference frames to the query target. Query execution then verifies
/// frames with the full detector from highest score down, like BlazeIt.
///
/// The embedding pass is reusable across queries; only scoring +
/// verification repeat per query.
class Tasti {
 public:
  struct Options {
    /// Reference frames labeled for kNN scoring (from training clips).
    int reference_frames = 400;
    int limit = 25;
    int min_separation_sec = 5;
  };

  /// Embeds every test frame once; returns the embeddings and charges the
  /// pre-processing cost.
  struct Index {
    std::vector<std::pair<models::FrameEmbedding, FrameRef>> embeddings;
    double preprocess_seconds = 0.0;
  };
  static Index BuildIndex(const std::vector<sim::Clip>& test);

  /// Executes one query against a pre-built index. `report.preprocess_
  /// seconds` is copied from the index (reusable across queries).
  static FrameQueryReport RunQuery(const Index& index,
                                   const std::vector<sim::Clip>& train,
                                   const std::vector<sim::Clip>& test,
                                   const FrameTarget& target,
                                   const query::FramePredicate& predicate,
                                   const Options& options, uint64_t seed);
};

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_TASTI_H_
