#include "storage/inverted_index.h"

#include <algorithm>

namespace storypivot {

void InvertedIndex::Add(SnippetId id, const text::TermVector& terms) {
  for (const auto& [term, weight] : terms.entries()) {
    if (weight <= 0.0) continue;
    postings_.GetOrInsert(term).Mutate()->push_back(id);
    ++num_postings_;
  }
}

void InvertedIndex::Remove(SnippetId id) { tombstones_.Mutate()->insert(id); }

void InvertedIndex::AppendPostings(text::TermId term,
                                   std::vector<SnippetId>* out) const {
  const PostingList* list = postings_.Find(term);
  if (list == nullptr) return;
  const std::unordered_set<SnippetId>& dead = tombstones_.read();
  for (SnippetId id : list->read()) {
    if (!dead.contains(id)) out->push_back(id);
  }
}

std::vector<SnippetId> InvertedIndex::Candidates(
    const text::TermVector& probe) const {
  std::vector<SnippetId> out;
  for (const auto& [term, weight] : probe.entries()) {
    if (weight <= 0.0) continue;
    AppendPostings(term, &out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void InvertedIndex::Compact() {
  if (tombstones_.read().empty()) return;
  // Mutating the map invalidates its iterators, so collect the term set
  // first, then rewrite list by list.
  std::vector<text::TermId> terms;
  postings_.ForEach([&terms](text::TermId term, const PostingList&) {
    terms.push_back(term);
  });
  const std::unordered_set<SnippetId>& dead = tombstones_.read();
  size_t live = 0;
  for (text::TermId term : terms) {
    PostingList* list = postings_.FindMutable(term);
    std::vector<SnippetId>* ids = list->Mutate();
    std::erase_if(*ids, [&dead](SnippetId id) { return dead.contains(id); });
    if (ids->empty()) {
      postings_.Erase(term);
    } else {
      live += ids->size();
    }
  }
  num_postings_ = live;
  tombstones_.Mutate()->clear();
}

InvertedIndex InvertedIndex::Freeze() const {
  InvertedIndex frozen;
  frozen.postings_ = postings_;      // O(1) structural share.
  frozen.tombstones_ = tombstones_;  // O(1) structural share.
  frozen.num_postings_ = num_postings_;
  return frozen;
}

}  // namespace storypivot
