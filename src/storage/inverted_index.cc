#include "storage/inverted_index.h"

#include <algorithm>

#include "util/logging.h"

namespace storypivot {

void InvertedIndex::Add(SnippetId id, const text::TermVector& terms) {
  for (const auto& [term, weight] : terms.entries()) {
    if (weight <= 0.0) continue;
    postings_.GetOrInsert(term).Mutate()->push_back(id);
    ++num_postings_;
  }
}

void InvertedIndex::Remove(SnippetId id, const text::TermVector& terms) {
  for (const auto& [term, weight] : terms.entries()) {
    if (weight <= 0.0) continue;
    PostingList* box = postings_.FindMutable(term);
    SP_CHECK(box != nullptr);
    std::vector<SnippetId>* ids = box->Mutate();
    auto it = std::find(ids->begin(), ids->end(), id);
    SP_CHECK(it != ids->end());
    ids->erase(it);
    --num_postings_;
    if (ids->empty()) postings_.Erase(term);
  }
}

std::vector<SnippetId> InvertedIndex::Candidates(
    const text::TermVector& probe) const {
  std::vector<SnippetId> out;
  for (const auto& [term, weight] : probe.entries()) {
    if (weight <= 0.0) continue;
    const PostingList* list = postings_.Find(term);
    if (list == nullptr) continue;
    out.insert(out.end(), list->read().begin(), list->read().end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

InvertedIndex InvertedIndex::Freeze() const {
  InvertedIndex frozen;
  frozen.postings_ = postings_;  // O(1) structural share.
  frozen.num_postings_ = num_postings_;
  return frozen;
}

}  // namespace storypivot
