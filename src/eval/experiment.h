#ifndef STORYPIVOT_EVAL_EXPERIMENT_H_
#define STORYPIVOT_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "eval/metrics.h"

namespace storypivot::eval {

/// One complete experiment: a generated corpus run through an engine
/// configuration, measured for performance and quality — one data point of
/// the paper's statistics module (Fig. 7).
struct ExperimentConfig {
  datagen::CorpusConfig corpus;
  EngineConfig engine;
  bool run_alignment = true;
  bool run_refinement = true;
  /// Human-readable label for result tables, e.g. "temporal w=7d".
  std::string label;
};

/// Measured outcomes of one experiment run.
struct ExperimentRow {
  std::string label;
  size_t num_events = 0;  // Snippets ingested.
  size_t num_sources = 0;

  // Performance (Fig. 7 left panel).
  double ingest_time_ms = 0.0;    // Total story-identification time.
  double per_event_ms = 0.0;      // ingest_time_ms / num_events.
  double align_time_ms = 0.0;
  /// The whole Refine() call: the pass and the re-alignment ending it.
  double refine_time_ms = 0.0;
  uint64_t comparisons = 0;       // Pairwise similarity evaluations.

  // Quality (Fig. 7 right panel).
  /// Story identification quality: pairwise F over within-source pairs,
  /// micro-averaged across sources.
  PrfScores si_pairwise;
  PrfScores si_bcubed;
  /// Story alignment quality: global pairwise F over all snippets using
  /// integrated story labels.
  PrfScores sa_pairwise;
  PrfScores sa_bcubed;
  double sa_nmi = 0.0;
  double sa_ari = 0.0;

  // Structure.
  size_t stories_per_source_total = 0;
  size_t integrated_stories = 0;
  size_t truth_stories = 0;
};

/// Runs one experiment end to end: generate -> ingest (timed) -> align ->
/// refine -> score. Deterministic given the config.
[[nodiscard]] ExperimentRow RunExperiment(const ExperimentConfig& config);

/// Scores the engine's current state against ground truth labels carried
/// by the snippets (Snippet::truth_story >= 0 required). Usable on
/// externally-driven engines too (e.g. streaming benches).
struct QualityScores {
  PrfScores si_pairwise;
  PrfScores si_bcubed;
  PrfScores sa_pairwise;
  PrfScores sa_bcubed;
  double sa_nmi = 0.0;
  double sa_ari = 0.0;
};
[[nodiscard]] QualityScores ScoreEngine(const StoryPivotEngine& engine);

/// Renders rows as an aligned text table (the statistics module's tabular
/// view).
[[nodiscard]] std::string FormatRows(const std::vector<ExperimentRow>& rows);

}  // namespace storypivot::eval

#endif  // STORYPIVOT_EVAL_EXPERIMENT_H_
