#ifndef STORYPIVOT_SEARCH_POSTINGS_INDEX_H_
#define STORYPIVOT_SEARCH_POSTINGS_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cow/persistent_map.h"
#include "cow/sorted_runs.h"
#include "model/ids.h"
#include "model/snippet.h"
#include "model/time.h"
#include "text/vocabulary.h"

namespace storypivot::search {

/// The fields a term can be posted under. Entity and keyword terms carry
/// the engine vocabularies' TermIds; event types are indexed by their
/// string (they have no engine vocabulary, and string keys keep the index
/// independent of rebuild iteration order).
enum class Field : uint8_t { kEntity = 0, kKeyword = 1, kEventType = 2 };

/// One posting: a snippet containing the term. Postings carry the source
/// and timestamp so queries can resolve the snippet's current story
/// (source -> partition -> StoryOf) and apply time-range filters without
/// touching the snippet store.
struct Posting {
  SnippetId snippet = kInvalidSnippetId;
  SourceId source = kInvalidSourceId;
  Timestamp timestamp = 0;
  /// Term frequency within the snippet (annotation weights are small
  /// integers, so sums over postings are exact in double).
  double tf = 0.0;
};

/// Postings order: by snippet id (one posting per snippet and term).
struct PostingOrder {
  bool operator()(const Posting& a, const Posting& b) const {
    return a.snippet < b.snippet;
  }
};

/// Snippet-granular inverted index over entity terms, keyword terms and
/// event types, maintained incrementally as snippets enter and leave the
/// engine (DESIGN.md §11).
///
/// Layout: term -> postings list sorted by snippet id. One posting per
/// (term, snippet), so a list's length IS the term's snippet document
/// frequency. Postings are snippet-granular on purpose: story merges and
/// splits move snippets between stories without touching term content,
/// so the index needs no merge/split maintenance at all — story-level
/// views resolve the live snippet -> story assignment at query time,
/// which also makes the flattened lists a pure function of the set of
/// live snippets (deterministic across thread counts, insertion orders
/// and crash/rebuild cycles).
///
/// Each posting list is a cow::SortedRuns: runs of at most kPostingRun
/// postings (4 KB) behind CowBoxes in a CowBox'd spine, hung off
/// persistent (HAMT) maps, so Freeze() is an O(1) structural share. The
/// first post/unpost to a term after a freeze copies a trie path, the
/// term's spine and one run, not the whole list (DESIGN.md §15). Run
/// boundaries depend on the insertion history; the flattened lists do
/// not, and readers only walk the runs in order.
class PostingsIndex {
 public:
  /// Postings per run: 128 x 32 B = 4 KB, the most one post clones.
  static constexpr size_t kPostingRun = 128;
  /// One term's postings in snippet-id order; size() is its snippet
  /// document frequency.
  using PostingList = cow::SortedRuns<Posting, PostingOrder, kPostingRun>;

  PostingsIndex() = default;

  PostingsIndex(const PostingsIndex&) = delete;
  PostingsIndex& operator=(const PostingsIndex&) = delete;
  PostingsIndex(PostingsIndex&&) = default;
  PostingsIndex& operator=(PostingsIndex&&) = default;

  /// Posts the snippet's entity terms, keyword terms and event type.
  void AddSnippet(const Snippet& snippet);

  /// Removes every posting of the snippet. The snippet must carry the
  /// same content it was added with.
  void RemoveSnippet(const Snippet& snippet);

  /// Postings of a vocabulary term, sorted by snippet id; nullptr when
  /// the term was never posted. `field` must be kEntity or kKeyword.
  [[nodiscard]] const PostingList* Postings(Field field,
                                            text::TermId term) const;

  /// Postings of an event type, sorted by snippet id; nullptr if unseen.
  [[nodiscard]] const PostingList* EventTypePostings(
      std::string_view event_type) const;

  /// Event types currently posted, in lexicographic order, with their
  /// document frequencies.
  [[nodiscard]] std::vector<std::pair<std::string, size_t>> EventTypes()
      const;

  /// The lexicographically smallest posted event type whose ASCII-lower-
  /// cased form equals `lowered`, or nullptr. Walks the posted types
  /// without allocating: they are few and change on every post/unpost,
  /// so a folded map would not pay for itself. The pointer is valid until
  /// the next AddSnippet/RemoveSnippet.
  [[nodiscard]] const std::string* EventTypeIgnoringCase(
      std::string_view lowered) const;

  /// Number of snippets containing the term (postings-list length).
  [[nodiscard]] size_t DocumentFrequency(Field field,
                                         text::TermId term) const;
  [[nodiscard]] size_t EventTypeFrequency(std::string_view event_type) const;

  /// Live snippets indexed.
  [[nodiscard]] size_t num_documents() const { return num_documents_; }

  /// Total content length (sum of entity + keyword weights) over all
  /// live snippets; with TotalStories() this yields the average story
  /// length BM25 normalizes against.
  [[nodiscard]] double total_length() const { return total_length_; }

  /// Total live postings across all fields (cost indicator).
  [[nodiscard]] size_t num_postings() const { return num_postings_; }

  /// Number of distinct terms posted per field.
  [[nodiscard]] size_t num_terms(Field field) const;

  /// O(1) frozen copy sharing every posting list with this index; the
  /// copy is immune to later writes (copy-on-write). Copying is still
  /// disallowed so accidental index copies stay compile errors.
  [[nodiscard]] PostingsIndex Freeze() const;

 private:
  using TermPostings = cow::PersistentMap<text::TermId, PostingList>;
  /// Heterogeneous string hashing so lookups take string_view; the HAMT
  /// iterates in hash order, so EventTypes() sorts explicitly.
  using EventPostings =
      cow::PersistentMap<std::string, PostingList,
                         std::hash<std::string_view>>;

  void Post(PostingList* list, const Posting& posting);
  /// Removes the snippet's posting under `term`, and the term once its
  /// list is empty.
  template <typename Map, typename Key>
  void Unpost(Map* postings, const Key& term, SnippetId snippet);

  TermPostings entity_postings_;
  TermPostings keyword_postings_;
  EventPostings event_postings_;
  size_t num_documents_ = 0;
  size_t num_postings_ = 0;
  double total_length_ = 0.0;
};

}  // namespace storypivot::search

#endif  // STORYPIVOT_SEARCH_POSTINGS_INDEX_H_
