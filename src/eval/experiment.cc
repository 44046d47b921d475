#include "eval/experiment.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace storypivot::eval {

QualityScores ScoreEngine(const StoryPivotEngine& engine) {
  QualityScores out;

  // --- Story identification: within-source pair counts, micro-averaged.
  PairCounts si_counts;
  double bcubed_p_weighted = 0.0, bcubed_r_weighted = 0.0;
  size_t bcubed_n = 0;
  // Evaluation scores every story by construction.  // splint: allow(full-scan)
  for (const StorySet* partition : engine.partitions()) {  // splint: allow(full-scan)
    std::vector<int64_t> truth, predicted;
    partition->snippet_times().ForEach([&](Timestamp, SnippetId sid) {
      const Snippet* snippet = engine.store().Find(sid);
      SP_CHECK(snippet != nullptr);
      if (snippet->truth_story < 0) return;
      truth.push_back(snippet->truth_story);
      predicted.push_back(static_cast<int64_t>(partition->StoryOf(sid)));
    });
    if (truth.empty()) continue;
    si_counts += CountPairs(truth, predicted);
    PrfScores b = BCubed(truth, predicted);
    bcubed_p_weighted += b.precision * static_cast<double>(truth.size());
    bcubed_r_weighted += b.recall * static_cast<double>(truth.size());
    bcubed_n += truth.size();
  }
  out.si_pairwise = si_counts.ToScores();
  if (bcubed_n > 0) {
    out.si_bcubed.precision = bcubed_p_weighted / bcubed_n;
    out.si_bcubed.recall = bcubed_r_weighted / bcubed_n;
    double p = out.si_bcubed.precision, r = out.si_bcubed.recall;
    out.si_bcubed.f1 = (p + r) > 0 ? 2 * p * r / (p + r) : 0.0;
  }

  // --- Story alignment: global labels from integrated stories.
  if (engine.has_alignment()) {
    const AlignmentResult& alignment = engine.alignment();
    std::vector<int64_t> truth, predicted;
    engine.store().ForEach([&](const Snippet& snippet) {
      if (snippet.truth_story < 0) return;
      auto it = alignment.integrated_of.find(snippet.id);
      if (it == alignment.integrated_of.end()) return;
      truth.push_back(snippet.truth_story);
      predicted.push_back(static_cast<int64_t>(it->second));
    });
    if (!truth.empty()) {
      out.sa_pairwise = PairwiseF(truth, predicted);
      out.sa_bcubed = BCubed(truth, predicted);
      out.sa_nmi = NormalizedMutualInformation(truth, predicted);
      out.sa_ari = AdjustedRandIndex(truth, predicted);
    }
  }
  return out;
}

ExperimentRow RunExperiment(const ExperimentConfig& config) {
  datagen::CorpusGenerator generator(config.corpus);
  datagen::Corpus corpus = generator.Generate();

  StoryPivotEngine engine(config.engine);
  SP_CHECK(engine
               .ImportVocabularies(*corpus.entity_vocabulary,
                                   *corpus.keyword_vocabulary)
               .ok());
  for (const SourceInfo& source : corpus.sources) {
    SourceId id = engine.RegisterSource(source.name);
    SP_CHECK(id == source.id);
  }

  ExperimentRow row;
  row.label = config.label;
  row.num_sources = corpus.sources.size();
  row.truth_stories = corpus.num_truth_stories();

  // Ingest in arrival order (the streaming order).
  for (Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    copy.id = kInvalidSnippetId;  // Engine assigns ids.
    Result<SnippetId> added = engine.AddSnippet(std::move(copy));
    SP_CHECK(added.ok());
  }
  row.num_events = corpus.snippets.size();
  row.ingest_time_ms = engine.stats().identify_time_ms;
  row.per_event_ms =
      row.num_events == 0 ? 0.0 : row.ingest_time_ms / row.num_events;

  if (config.run_alignment) {
    engine.Align();
    row.align_time_ms = engine.stats().align_time_ms;
  }
  if (config.run_refinement) {
    WallTimer timer;
    engine.Refine();
    row.refine_time_ms = timer.ElapsedMillis();
  }
  row.comparisons = engine.similarity().num_comparisons();

  QualityScores scores = ScoreEngine(engine);
  row.si_pairwise = scores.si_pairwise;
  row.si_bcubed = scores.si_bcubed;
  row.sa_pairwise = scores.sa_pairwise;
  row.sa_bcubed = scores.sa_bcubed;
  row.sa_nmi = scores.sa_nmi;
  row.sa_ari = scores.sa_ari;

  row.stories_per_source_total = engine.TotalStories();
  if (engine.has_alignment()) {
    row.integrated_stories = engine.alignment().stories.size();
  }
  return row;
}

std::string FormatRows(const std::vector<ExperimentRow>& rows) {
  std::string out;
  out += StrFormat(
      "%-26s %8s %9s %10s %9s %9s %7s %7s %7s %7s %7s %7s\n", "label",
      "events", "ingest_ms", "ms/event", "align_ms", "cmp(M)", "SI-F1",
      "SI-B3", "SA-F1", "SA-B3", "NMI", "stories");
  for (const ExperimentRow& row : rows) {
    out += StrFormat(
        "%-26s %8zu %9.1f %10.4f %9.1f %9.2f %7.3f %7.3f %7.3f %7.3f %7.3f "
        "%7zu\n",
        row.label.c_str(), row.num_events, row.ingest_time_ms,
        row.per_event_ms, row.align_time_ms,
        static_cast<double>(row.comparisons) / 1e6, row.si_pairwise.f1,
        row.si_bcubed.f1, row.sa_pairwise.f1, row.sa_bcubed.f1, row.sa_nmi,
        row.stories_per_source_total);
  }
  return out;
}

}  // namespace storypivot::eval
