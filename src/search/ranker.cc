#include "search/ranker.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "core/story_set.h"
#include "model/story.h"
#include "storage/snippet_store.h"
#include "util/logging.h"
#include "util/strings.h"

namespace storypivot::search {

namespace {

/// The shared scoring kernel. Both evaluation paths call exactly this
/// function with exactly the same operand values, which is what makes
/// their scores bit-identical.
double Bm25(double tf, double dl, double avgdl, double idf) {
  const double norm =
      kBm25K1 * (1.0 - kBm25B + kBm25B * (avgdl > 0.0 ? dl / avgdl : 0.0));
  return idf * (tf * (kBm25K1 + 1.0)) / (tf + norm);
}

/// A query term prepared for scoring: idf resolved, upper bound computed.
struct ScoredTerm {
  Field field = Field::kKeyword;
  text::TermId term = text::kInvalidTermId;
  std::string event_type;
  double idf = 0.0;
  /// MaxScore bound: BM25's tf saturation caps a term's contribution at
  /// idf * (k1 + 1) for any tf and any dl (norm > 0 since b < 1).
  double ub = 0.0;
};

/// Computes idf and bounds from (df, N) and orders terms by descending
/// bound — the processing order MaxScore pruning wants. Terms with df == 0
/// are dropped (they can contribute nothing); `dropped` reports whether
/// any were, which empties conjunctive queries. The sort tie-break is
/// total, so both evaluation paths order identical inputs identically.
std::vector<ScoredTerm> PrepareTerms(const ParsedQuery& query,
                                     const std::vector<size_t>& df, size_t n,
                                     bool* dropped) {
  *dropped = false;
  std::vector<ScoredTerm> terms;
  terms.reserve(query.terms.size());
  for (size_t i = 0; i < query.terms.size(); ++i) {
    if (df[i] == 0) {
      *dropped = true;
      continue;
    }
    ScoredTerm term;
    term.field = query.terms[i].field;
    term.term = query.terms[i].term;
    term.event_type = query.terms[i].event_type;
    term.idf = std::log(1.0 + (static_cast<double>(n - df[i]) + 0.5) /
                                  (static_cast<double>(df[i]) + 0.5));
    term.ub = term.idf * (kBm25K1 + 1.0);
    terms.push_back(std::move(term));
  }
  std::sort(terms.begin(), terms.end(),
            [](const ScoredTerm& a, const ScoredTerm& b) {
              if (a.ub != b.ub) return a.ub > b.ub;
              if (a.field != b.field) return a.field < b.field;
              if (a.term != b.term) return a.term < b.term;
              return a.event_type < b.event_type;
            });
  return terms;
}

double StoryLength(const Story& story) {
  return story.entities().Sum() + story.keywords().Sum();
}

/// Final deterministic order: score descending, then story id ascending.
/// Story ids are unique across the whole engine, so this is total.
void SortAndTruncate(std::vector<StoryHit>* hits, size_t k) {
  std::sort(hits->begin(), hits->end(),
            [](const StoryHit& a, const StoryHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.story < b.story;
            });
  if (hits->size() > k) hits->resize(k);
}

bool InWindow(const SearchOptions& options, Timestamp ts) {
  return !options.filter_time || (ts >= options.from && ts <= options.to);
}

}  // namespace

Status ValidateSearchOptions(const SearchOptions& options) {
  if (options.filter_time && options.from > options.to) {
    return Status::InvalidArgument(
        StrFormat("inverted time range: from (%lld) > to (%lld); the "
                  "[from, to] filter is inclusive, so this window matches "
                  "nothing",
                  static_cast<long long>(options.from),
                  static_cast<long long>(options.to)));
  }
  return Status::OK();
}

std::vector<StoryHit> RankStories(const PostingsIndex& index,
                                  const StoryCorpus& corpus,
                                  const ParsedQuery& query,
                                  const SearchOptions& options) {
  if (query.empty() || options.k == 0) return {};
  const size_t num_stories = corpus.total_stories;
  if (num_stories == 0) return {};

  // Resolve each term's postings list; list length is its snippet df.
  auto list_of = [&index](Field field, text::TermId term,
                          const std::string& event_type) {
    return field == Field::kEventType ? index.EventTypePostings(event_type)
                                      : index.Postings(field, term);
  };
  std::vector<size_t> df;
  df.reserve(query.terms.size());
  for (const QueryTerm& term : query.terms) {
    const PostingsIndex::PostingList* list =
        list_of(term.field, term.term, term.event_type);
    df.push_back(list == nullptr ? 0 : list->size());
  }

  bool dropped = false;
  std::vector<ScoredTerm> terms =
      PrepareTerms(query, df, index.num_documents(), &dropped);
  if (terms.empty()) return {};
  if (options.mode == MatchMode::kAll && dropped) return {};

  const double avgdl =
      index.total_length() / static_cast<double>(num_stories);

  struct Candidate {
    SourceId source = kInvalidSourceId;
    StoryId story = kInvalidStoryId;
    double score = 0.0;
    uint32_t matched = 0;
    /// tf accumulator for the term currently being walked.
    double tf = 0.0;
    int last_term = -1;
    /// Story length, resolved lazily the first time the story is scored.
    double dl = -1.0;
  };
  std::vector<Candidate> candidates;
  // Dense candidate directory: story ids are assigned from one engine-wide
  // counter, so a flat array beats a hash map on the per-posting hot path.
  // The partition directory comes prefilled with the corpus.
  constexpr uint32_t kNoCandidate = UINT32_MAX;
  std::vector<uint32_t> candidate_of(corpus.next_story, kNoCandidate);
  auto partition = [&](SourceId source) { return corpus.partition(source); };

  double remaining_ub = 0.0;
  for (const ScoredTerm& term : terms) remaining_ub += term.ub;

  // Term-at-a-time evaluation, best (highest-bound) term first. Once the
  // bounds of the unprocessed terms cannot lift a fresh story past the
  // current k-th best score, new candidates stop being admitted; stories
  // already admitted keep accumulating so their final scores stay exact.
  bool allow_new = true;
  std::vector<size_t> touched;
  std::vector<double> scores_scratch;
  for (size_t i = 0; i < terms.size(); ++i) {
    const ScoredTerm& term = terms[i];
    const PostingsIndex::PostingList* list =
        list_of(term.field, term.term, term.event_type);
    SP_CHECK(list != nullptr);  // df > 0 terms only.
    touched.clear();
    // The runs in order: the same posting sequence, and so the same tf
    // sums, as one flat list.
    for (const PostingsIndex::PostingList::Run& run : list->runs()) {
      for (const Posting& posting : run.read()) {
        if (!InWindow(options, posting.timestamp)) continue;
        const StorySet* part = partition(posting.source);
        if (part == nullptr) continue;
        const StoryId story = part->StoryOf(posting.snippet);
        if (story == kInvalidStoryId || story >= candidate_of.size()) {
          continue;
        }
        uint32_t slot = candidate_of[story];
        if (slot == kNoCandidate) {
          if (!allow_new) continue;
          slot = static_cast<uint32_t>(candidates.size());
          candidate_of[story] = slot;
          Candidate candidate;
          candidate.source = posting.source;
          candidate.story = story;
          candidates.push_back(candidate);
        }
        Candidate& candidate = candidates[slot];
        if (candidate.last_term != static_cast<int>(i)) {
          candidate.last_term = static_cast<int>(i);
          candidate.tf = 0.0;
          touched.push_back(slot);
        }
        candidate.tf += posting.tf;
      }
    }
    for (size_t ci : touched) {
      Candidate& candidate = candidates[ci];
      if (candidate.dl < 0.0) {
        const StorySet* part = partition(candidate.source);
        const Story* story = part->FindStory(candidate.story);
        SP_CHECK(story != nullptr);
        candidate.dl = StoryLength(*story);
      }
      candidate.score +=
          Bm25(candidate.tf, candidate.dl, avgdl, term.idf);
      ++candidate.matched;
    }
    remaining_ub -= term.ub;
    if (options.mode == MatchMode::kAll) {
      // Conjunctive: every match must appear under the first (rarest-
      // bounded) term too, so later terms never admit anyone new.
      allow_new = false;
    } else if (allow_new && candidates.size() >= options.k &&
               remaining_ub > 0.0) {
      scores_scratch.clear();
      scores_scratch.reserve(candidates.size());
      for (const Candidate& candidate : candidates) {
        scores_scratch.push_back(candidate.score);
      }
      std::nth_element(scores_scratch.begin(),
                       scores_scratch.begin() + (options.k - 1),
                       scores_scratch.end(), std::greater<double>());
      const double theta = scores_scratch[options.k - 1];
      // Scores only grow, so theta lower-bounds the final k-th best; a
      // story not yet admitted can reach at most remaining_ub.
      if (remaining_ub < theta) allow_new = false;
    }
  }

  std::vector<StoryHit> hits;
  hits.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    if (options.mode == MatchMode::kAll &&
        candidate.matched != static_cast<uint32_t>(terms.size())) {
      continue;
    }
    StoryHit hit;
    hit.source = candidate.source;
    hit.story = candidate.story;
    hit.score = candidate.score;
    hit.matched_terms = candidate.matched;
    hits.push_back(hit);
  }
  SortAndTruncate(&hits, options.k);
  return hits;
}

std::vector<StoryHit> RankStoriesScan(const StoryPivotEngine& engine,
                                      const ParsedQuery& query,
                                      const SearchOptions& options) {
  if (query.empty() || options.k == 0) return {};
  const size_t num_stories = engine.TotalStories();
  if (num_stories == 0) return {};

  // Document frequencies the hard way: one pass over the snippet store.
  std::vector<size_t> df(query.terms.size(), 0);
  size_t num_documents = 0;
  engine.store().ForEach([&](const Snippet& snippet) {
    ++num_documents;
    for (size_t i = 0; i < query.terms.size(); ++i) {
      const QueryTerm& term = query.terms[i];
      switch (term.field) {
        case Field::kEntity:
          if (snippet.entities.ValueOf(term.term) > 0.0) ++df[i];
          break;
        case Field::kKeyword:
          if (snippet.keywords.ValueOf(term.term) > 0.0) ++df[i];
          break;
        case Field::kEventType:
          if (snippet.event_type == term.event_type) ++df[i];
          break;
      }
    }
  });

  bool dropped = false;
  std::vector<ScoredTerm> terms =
      PrepareTerms(query, df, num_documents, &dropped);
  if (terms.empty()) return {};
  if (options.mode == MatchMode::kAll && dropped) return {};

  double total_length = 0.0;
  for (const StorySet* part : engine.partitions()) {
    for (const auto& [id, story] : part->stories()) {
      total_length += StoryLength(story.read());
    }
  }
  const double avgdl = total_length / static_cast<double>(num_stories);

  // Term frequency of `term` within the story. Without a time filter,
  // entity/keyword tfs come straight off the story aggregates (the same
  // exact-integer sums the postings walk produces); event types and
  // filtered queries walk the member snippets.
  auto story_tf = [&](const Story& story, const ScoredTerm& term) {
    if (!options.filter_time) {
      if (term.field == Field::kEntity) {
        return story.entities().ValueOf(term.term);
      }
      if (term.field == Field::kKeyword) {
        return story.keywords().ValueOf(term.term);
      }
    }
    double tf = 0.0;
    for (SnippetId id : story.snippets()) {
      const Snippet* snippet = engine.store().Find(id);
      SP_CHECK(snippet != nullptr);
      if (!InWindow(options, snippet->timestamp)) continue;
      switch (term.field) {
        case Field::kEntity:
          tf += snippet->entities.ValueOf(term.term);
          break;
        case Field::kKeyword:
          tf += snippet->keywords.ValueOf(term.term);
          break;
        case Field::kEventType:
          if (snippet->event_type == term.event_type) tf += 1.0;
          break;
      }
    }
    return tf;
  };

  std::vector<StoryHit> hits;
  for (const StorySet* part : engine.partitions()) {
    for (const auto& [id, box] : part->stories()) {
      const Story& story = box.read();
      const double dl = StoryLength(story);
      double score = 0.0;
      uint32_t matched = 0;
      for (const ScoredTerm& term : terms) {
        const double tf = story_tf(story, term);
        if (tf <= 0.0) continue;
        score += Bm25(tf, dl, avgdl, term.idf);
        ++matched;
      }
      if (matched == 0) continue;
      if (options.mode == MatchMode::kAll &&
          matched != static_cast<uint32_t>(terms.size())) {
        continue;
      }
      StoryHit hit;
      hit.source = part->source();
      hit.story = id;
      hit.score = score;
      hit.matched_terms = matched;
      hits.push_back(hit);
    }
  }
  SortAndTruncate(&hits, options.k);
  return hits;
}

}  // namespace storypivot::search
