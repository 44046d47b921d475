#ifndef STORYPIVOT_STORAGE_INVERTED_INDEX_H_
#define STORYPIVOT_STORAGE_INVERTED_INDEX_H_

#include <vector>

#include "cow/cow_box.h"
#include "cow/persistent_map.h"
#include "model/ids.h"
#include "text/term_vector.h"
#include "text/vocabulary.h"

namespace storypivot {

/// Term -> snippet-id posting lists, used to generate candidate snippets
/// that share at least one entity or keyword with a probe. Removal is
/// eager: the id leaves every list it was posted to, and a list that
/// empties is dropped, so the index holds exactly the live postings.
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

  /// Removes `id` from the posting list of every term in `terms`, which
  /// must be the vector `id` was added with.
  void Remove(SnippetId id, const text::TermVector& terms);

  /// Collects the distinct candidate ids sharing >= 1 term with `probe`.
  std::vector<SnippetId> Candidates(const text::TermVector& probe) const;

  /// O(1) frozen copy sharing every posting list with this index; the
  /// copy is immune to later writes (copy-on-write). Copying is still
  /// disallowed so large-index copies stay deliberate.
  [[nodiscard]] InvertedIndex Freeze() const;

  /// Postings count (approximate cost indicator).
  size_t num_postings() const { return num_postings_; }

 private:
  using PostingList = cow::CowBox<std::vector<SnippetId>>;

  cow::PersistentMap<text::TermId, PostingList> postings_;
  size_t num_postings_ = 0;
};

}  // namespace storypivot

#endif  // STORYPIVOT_STORAGE_INVERTED_INDEX_H_
