#ifndef STORYPIVOT_DATAGEN_CORPUS_H_
#define STORYPIVOT_DATAGEN_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "datagen/world.h"
#include "model/document.h"
#include "model/snippet.h"
#include "model/time.h"
#include "text/vocabulary.h"

namespace storypivot::datagen {

/// Parameters of a generated corpus. The defaults produce a mid-sized
/// workload; `GdeltScalePreset()` mirrors the dataset card of the paper's
/// Fig. 7 (50 sources, 500 entities, June 1 - Dec 1 2014).
struct CorpusConfig {
  uint64_t seed = 42;

  // World shape.
  int num_sources = 10;
  int num_entities = 200;
  int num_communities = 25;
  int topics_per_domain = 2;

  // Story shape.
  int num_stories = 40;
  Timestamp start_time = MakeTimestamp(2014, 6, 1);
  Timestamp end_time = MakeTimestamp(2014, 12, 1);
  double mean_story_duration_days = 35.0;
  int max_episodes = 4;
  /// Zipf exponent over stories: head stories get most events.
  double story_popularity_skew = 0.8;

  // Reporting shape.
  /// Total snippets to aim for (across all sources).
  int target_num_snippets = 5000;
  /// Base probability that a source reports a given event.
  double coverage_base = 0.45;
  /// Strength of per-source, per-domain coverage bias in [0,1].
  double coverage_bias = 0.5;
  /// Mean delay between an event and a source publishing it, in hours.
  double mean_report_delay_hours = 18.0;
  /// Probability of dropping/adding an entity, per entity slot.
  double entity_noise = 0.08;
  /// Probability that a keyword slot is replaced by cross-domain filler.
  double keyword_noise = 0.12;
  /// Keywords sampled per snippet.
  int keywords_per_snippet = 8;
  /// Per-source disagreement about the event time, in hours (uniform ±).
  double timestamp_jitter_hours = 4.0;
  /// Probability that a source runs *syndicated wire copy* of an event —
  /// an exact duplicate of the first report's content — instead of
  /// independently paraphrasing it. Models agency copy shared across
  /// outlets.
  double syndication_rate = 0.0;

  /// Also render raw document text for every snippet (slower; exercises
  /// the full annotation pipeline end-to-end).
  bool emit_raw_text = false;
};

/// Returns the configuration matching the dataset card shown in the
/// paper's statistics module (Fig. 7): 50 sources, 500 entities,
/// 2014-06-01..2014-12-01. `target_num_snippets` is the paper's 10M in
/// spirit; callers scale it down to their budget.
CorpusConfig GdeltScalePreset();

/// A generated corpus: annotated snippets with ground-truth labels, plus
/// the world and vocabulary objects needed to interpret them.
struct Corpus {
  std::unique_ptr<text::Vocabulary> entity_vocabulary;
  std::unique_ptr<text::Vocabulary> keyword_vocabulary;
  std::unique_ptr<WorldModel> world;

  std::vector<SourceInfo> sources;

  /// Snippets ordered by *arrival* time (publication), which is how a
  /// streaming engine would see them. Snippet::timestamp holds the event
  /// time and is typically earlier; the two orders differ (out-of-order
  /// arrivals, §2.4).
  std::vector<Snippet> snippets;
  /// Arrival (publication) time, parallel to `snippets`.
  std::vector<Timestamp> arrivals;

  /// Raw rendered documents (one per snippet), only when
  /// CorpusConfig::emit_raw_text was set; parallel to `snippets`.
  std::vector<Document> documents;

  std::vector<TruthStory> truth_stories;

  /// Ground-truth labels keyed by snippet index (== Snippet::truth_story).
  size_t num_truth_stories() const { return truth_stories.size(); }
};

/// Generates synthetic multi-source news corpora with ground truth.
/// Deterministic for a fixed config (including seed).
class CorpusGenerator {
 public:
  explicit CorpusGenerator(CorpusConfig config);

  /// Generates a fresh corpus.
  Corpus Generate();

 private:
  CorpusConfig config_;
};

}  // namespace storypivot::datagen

#endif  // STORYPIVOT_DATAGEN_CORPUS_H_
