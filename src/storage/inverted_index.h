#ifndef STORYPIVOT_STORAGE_INVERTED_INDEX_H_
#define STORYPIVOT_STORAGE_INVERTED_INDEX_H_

#include <unordered_set>
#include <vector>

#include "cow/cow_box.h"
#include "cow/persistent_map.h"
#include "model/ids.h"
#include "text/term_vector.h"
#include "text/vocabulary.h"

namespace storypivot {

/// Term -> snippet-id posting lists, used to generate candidate snippets
/// that share at least one entity or keyword with a probe. Deletions are
/// lazy (tombstoned) and reclaimed by Compact(), which callers or the
/// engine trigger when the tombstone ratio grows.
///
/// Posting lists live in CowBox'd vectors hung off a persistent (HAMT)
/// map, so Freeze() is an O(1) structural share and a mutation after a
/// freeze copies only the touched posting list plus a trie path — the
/// basis of the serving tier's O(delta) snapshot capture (DESIGN.md §15).
class InvertedIndex {
 public:
  InvertedIndex() = default;

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Adds `id` to the posting list of every term in `terms`.
  void Add(SnippetId id, const text::TermVector& terms);

  /// Tombstones `id` everywhere it was added.
  void Remove(SnippetId id);

  /// Appends the live ids posted under `term` to `out` (may contain ids
  /// posted under several probe terms more than once; callers dedupe).
  void AppendPostings(text::TermId term, std::vector<SnippetId>* out) const;

  /// Collects the distinct live candidate ids sharing >= 1 term with
  /// `probe`.
  std::vector<SnippetId> Candidates(const text::TermVector& probe) const;

  /// Physically removes tombstoned entries.
  void Compact();

  /// O(1) frozen copy sharing every posting list with this index; the
  /// copy is immune to later writes (copy-on-write). Copying is still
  /// disallowed so large-index copies stay deliberate.
  [[nodiscard]] InvertedIndex Freeze() const;

  /// Live postings count (approximate cost indicator).
  size_t num_postings() const { return num_postings_; }
  size_t num_tombstones() const { return tombstones_.read().size(); }

 private:
  using PostingList = cow::CowBox<std::vector<SnippetId>>;

  cow::PersistentMap<text::TermId, PostingList> postings_;
  cow::CowBox<std::unordered_set<SnippetId>> tombstones_;
  size_t num_postings_ = 0;
};

}  // namespace storypivot

#endif  // STORYPIVOT_STORAGE_INVERTED_INDEX_H_
