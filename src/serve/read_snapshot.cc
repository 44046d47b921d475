#include "serve/read_snapshot.h"

#include "model/story.h"
#include "storage/temporal_index.h"

namespace storypivot::serve {

namespace {

/// Builds a fresh TextState from the live engine: vocabularies clone by
/// re-interning in id order (ids are dense and stable), the gazetteer by
/// replaying its registration-order alias journal against the cloned
/// entity vocabulary — the same rebuild path core/snapshot uses for
/// persistence.
std::shared_ptr<const TextState> BuildTextState(
    const StoryPivotEngine& engine) {
  auto state = std::make_shared<TextState>();
  const text::Vocabulary& entities = engine.entity_vocabulary();
  for (text::TermId id = 0; id < entities.size(); ++id) {
    state->entity_vocab.Intern(entities.TermOf(id));
  }
  const text::Vocabulary& keywords = engine.keyword_vocabulary();
  for (text::TermId id = 0; id < keywords.size(); ++id) {
    state->keyword_vocab.Intern(keywords.TermOf(id));
  }
  state->gazetteer = std::make_unique<text::Gazetteer>(&state->entity_vocab);
  for (const auto& [entity, alias] : engine.gazetteer().aliases()) {
    state->gazetteer->AddAlias(entity, alias);
  }
  return state;
}

}  // namespace

std::shared_ptr<const TextState> CaptureContext::GetOrRebuild(
    const StoryPivotEngine& engine) {
  const size_t entities = engine.entity_vocabulary().size();
  const size_t keywords = engine.keyword_vocabulary().size();
  const size_t aliases = engine.gazetteer().aliases().size();
  // Vocabularies and the alias journal are append-only within an engine
  // lifetime, so unchanged sizes imply unchanged content. That holds
  // across an in-place DurableEngine::Reopen(), which keeps this
  // context: recovery replays the acked prefix in its original order, so
  // the recovered text state and every state this cache was built from
  // are prefixes of one sequence, and the recovery publish
  // (CommitEvent::kRecovery) re-anchors the cache before writes resume.
  if (cached_ == nullptr || entities != entity_size_ ||
      keywords != keyword_size_ || aliases != alias_count_) {
    cached_ = BuildTextState(engine);
    entity_size_ = entities;
    keyword_size_ = keywords;
    alias_count_ = aliases;
  }
  return cached_;
}

std::unique_ptr<ReadSnapshot> ReadSnapshot::Capture(
    const StoryPivotEngine& engine, const search::PostingsIndex& index,
    CaptureContext* context) {
  // Private constructor, so no make_unique.
  std::unique_ptr<ReadSnapshot> snapshot(new ReadSnapshot());
  snapshot->text_ = context->GetOrRebuild(engine);
  snapshot->index_ = index.Freeze();
  snapshot->sources_ = engine.sources();

  // Partitions: O(1) frozen shares per partition, then the corpus view.
  // The freeze touches every partition header, not its contents.  // splint: allow(full-scan)
  std::vector<const StorySet*> live = engine.partitions();  // splint: allow(full-scan)
  snapshot->partitions_.reserve(live.size());
  for (const StorySet* part : live) {
    snapshot->partitions_.push_back(part->Freeze());
  }
  // The corpus directory is built AFTER the vector is final so its
  // pointers stay valid for the snapshot's lifetime.
  search::StoryCorpus& corpus = snapshot->corpus_;
  corpus.total_stories = engine.TotalStories();
  const StoryPivotEngine::IdCounters counters = engine.id_counters();
  corpus.next_story = counters.next_story;
  corpus.partitions.reserve(snapshot->partitions_.size());
  corpus.partition_of.assign(counters.next_source, nullptr);
  for (const StorySet& part : snapshot->partitions_) {
    corpus.partitions.push_back(&part);
    if (part.source() < corpus.partition_of.size()) {
      corpus.partition_of[part.source()] = &part;
    }
  }
  return snapshot;
}

std::unique_ptr<ReadSnapshot> ReadSnapshot::Capture(
    const StoryPivotEngine& engine, const search::PostingsIndex& index) {
  CaptureContext context;
  return Capture(engine, index, &context);
}

size_t ReadSnapshot::ApproxBytes() const {
  size_t bytes = index_.num_postings() * sizeof(search::Posting);
  for (const StorySet& part : partitions_) {
    bytes += part.num_snippets() *
             (sizeof(TemporalIndex::Entry) + sizeof(SnippetId) +
              sizeof(StoryId));
    bytes += part.stories().size() * sizeof(Story);
  }
  return bytes;
}

search::ParsedQuery ReadSnapshot::Parse(std::string_view query) const {
  return search::ParseQuery(*text_->gazetteer, text_->entity_vocab,
                            text_->keyword_vocab, index_, query);
}

std::vector<search::StoryHit> ReadSnapshot::Search(
    const search::ParsedQuery& query,
    const search::SearchOptions& options) const {
  return search::RankStories(index_, corpus_, query, options);
}

std::vector<search::StoryHit> ReadSnapshot::Search(
    std::string_view query, const search::SearchOptions& options) const {
  return Search(Parse(query), options);
}

}  // namespace storypivot::serve
