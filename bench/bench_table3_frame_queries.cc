// Reproduces Table 3: frame-level limit queries. OTIF extracts all tracks
// once and answers each query by post-processing; BlazeIt trains and runs a
// query-specific proxy over every frame per query; TASTI builds a reusable
// embedding index but re-scores and re-verifies per query. Times are
// simulated seconds, averaged over the six queries.

#include <cstdio>
#include <memory>

#include "baselines/blazeit.h"
#include "baselines/tasti.h"
#include "bench/bench_common.h"
#include "eval/harness.h"
#include "models/cost_model.h"
#include "util/strings.h"
#include "util/table.h"

namespace otif {
namespace {

struct MethodTotals {
  double preprocess = 0.0;
  double query = 0.0;
  double accuracy = 0.0;
  int n = 0;
};

int Main() {
  const core::RunScale scale = bench::BenchScale();
  std::printf("=== Table 3: frame-level limit queries ===\n");
  bench::PrintScale(scale);

  MethodTotals otif_totals, blazeit_totals, tasti_totals;
  TextTable per_query({"Dataset", "Query", "N", "OTIF pre/q/acc",
                       "BlazeIt pre/q/acc", "TASTI pre/q/acc"});

  for (eval::FrameQuerySpec qspec : eval::StandardFrameQueries()) {
    const eval::TrackWorkload workload = eval::MakeTrackWorkload(qspec.dataset);
    core::Otif otif_system(workload.spec, scale);
    const auto train = otif_system.TrainClips();
    auto valid = std::make_shared<std::vector<sim::Clip>>(
        otif_system.ValidClips());
    const auto test = otif_system.TestClips();
    const core::AccuracyFn valid_fn = workload.MakeAccuracyFn(valid.get());

    eval::CalibrateFrameQuery(test, 0.15, &qspec);
    const auto predicate = qspec.MakePredicate();
    const int separation = qspec.min_separation_sec * workload.spec.fps;

    // --- OTIF: extract all tracks once with the fastest <=5%-loss config.
    core::Tuner::Options topts;
    otif_system.Prepare(valid_fn, topts);
    const core::TunerPoint& pick = otif_system.FastestWithinTolerance(0.05);
    const core::AccuracyFn test_fn = workload.MakeAccuracyFn(
        const_cast<std::vector<sim::Clip>*>(&test));
    core::EvalResult extraction =
        otif_system.Execute(pick.config, test, test_fn);
    std::vector<int> clip_frames;
    for (const sim::Clip& c : test) clip_frames.push_back(c.num_frames());
    const auto chosen = query::ExecuteLimitQueryMultiClip(
        extraction.tracks_per_clip, *predicate, clip_frames, qspec.limit,
        separation);
    double otif_query_sec = 0.0;
    for (const auto& per_clip : extraction.tracks_per_clip) {
      otif_query_sec += models::DefaultCostConstants().query_sec_per_track *
                        per_clip.size() * clip_frames[0];
    }
    const double otif_acc =
        query::LimitQueryAccuracy(test, chosen, *predicate);

    // --- BlazeIt ---
    baselines::BlazeIt::Options bopts;
    bopts.limit = qspec.limit;
    bopts.min_separation_sec = qspec.min_separation_sec;
    const baselines::FrameQueryReport blazeit = baselines::BlazeIt::RunQuery(
        train, test, qspec.MakeTarget(), *predicate, bopts,
        workload.spec.seed * 101);

    // --- TASTI ---
    const baselines::Tasti::Index index = baselines::Tasti::BuildIndex(test);
    baselines::Tasti::Options taopts;
    taopts.limit = qspec.limit;
    taopts.min_separation_sec = qspec.min_separation_sec;
    const baselines::FrameQueryReport tasti = baselines::Tasti::RunQuery(
        index, train, test, qspec.MakeTarget(), *predicate, taopts,
        workload.spec.seed * 103);

    per_query.AddRow(
        {workload.spec.name, qspec.kind, StrFormat("%d", qspec.n),
         StrFormat("%.1f/%.2f/%.2f", extraction.seconds, otif_query_sec,
                   otif_acc),
         StrFormat("%.1f/%.2f/%.2f", blazeit.preprocess_seconds,
                   blazeit.query_seconds, blazeit.accuracy),
         StrFormat("%.1f/%.2f/%.2f", tasti.preprocess_seconds,
                   tasti.query_seconds, tasti.accuracy)});

    otif_totals.preprocess += extraction.seconds;
    otif_totals.query += otif_query_sec;
    otif_totals.accuracy += otif_acc;
    ++otif_totals.n;
    blazeit_totals.preprocess += blazeit.preprocess_seconds;
    blazeit_totals.query += blazeit.query_seconds;
    blazeit_totals.accuracy += blazeit.accuracy;
    ++blazeit_totals.n;
    tasti_totals.preprocess += tasti.preprocess_seconds;
    tasti_totals.query += tasti.query_seconds;
    tasti_totals.accuracy += tasti.accuracy;
    ++tasti_totals.n;
  }

  std::printf("--- per-query detail (pre-processing / query time / accuracy) "
              "---\n%s\n",
              per_query.ToString().c_str());

  TextTable summary({"Metric", "OTIF", "BlazeIt", "TASTI"});
  auto avg = [](double total, int n) { return n > 0 ? total / n : 0.0; };
  // 1 query: OTIF pre-processing reusable, BlazeIt pre-processing repeats
  // per query, TASTI index reusable.
  summary.AddRow({"Avg pre-processing (s)",
                  StrFormat("%.1f", avg(otif_totals.preprocess, otif_totals.n)),
                  StrFormat("%.1f",
                            avg(blazeit_totals.preprocess, blazeit_totals.n)),
                  StrFormat("%.1f", avg(tasti_totals.preprocess,
                                        tasti_totals.n))});
  summary.AddRow(
      {"Avg query time (s)",
       StrFormat("%.2f", avg(otif_totals.query, otif_totals.n)),
       StrFormat("%.2f", avg(blazeit_totals.query, blazeit_totals.n)),
       StrFormat("%.2f", avg(tasti_totals.query, tasti_totals.n))});
  summary.AddRow(
      {"Avg total, 1 query (s)",
       StrFormat("%.1f", avg(otif_totals.preprocess + otif_totals.query,
                             otif_totals.n)),
       StrFormat("%.1f", avg(blazeit_totals.preprocess + blazeit_totals.query,
                             blazeit_totals.n)),
       StrFormat("%.1f", avg(tasti_totals.preprocess + tasti_totals.query,
                             tasti_totals.n))});
  summary.AddRow(
      {"Avg total, 5 queries (s)",
       StrFormat("%.1f", avg(otif_totals.preprocess + 5 * otif_totals.query,
                             otif_totals.n)),
       StrFormat("%.1f",
                 avg(5 * (blazeit_totals.preprocess + blazeit_totals.query),
                     blazeit_totals.n)),
       StrFormat("%.1f", avg(tasti_totals.preprocess + 5 * tasti_totals.query,
                             tasti_totals.n))});
  summary.AddRow(
      {"Avg accuracy",
       StrFormat("%.2f", avg(otif_totals.accuracy, otif_totals.n)),
       StrFormat("%.2f", avg(blazeit_totals.accuracy, blazeit_totals.n)),
       StrFormat("%.2f", avg(tasti_totals.accuracy, tasti_totals.n))});
  std::printf("--- Table 3 summary ---\n%s\n", summary.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace otif

int main() { return otif::Main(); }
