#include "search/postings_index.h"

#include <algorithm>
#include <cctype>

#include "util/logging.h"

namespace storypivot::search {

void PostingsIndex::Post(PostingList* list, const Posting& posting) {
  SP_CHECK(list->Insert(posting));  // One posting per (term, snippet).
  ++num_postings_;
}

template <typename Map, typename Key>
void PostingsIndex::Unpost(Map* postings, const Key& term,
                           SnippetId snippet) {
  PostingList* list = postings->FindMutable(term);
  SP_CHECK(list != nullptr);
  Posting probe;
  probe.snippet = snippet;
  SP_CHECK(list->Erase(probe));
  --num_postings_;
  if (list->empty()) postings->Erase(term);
}

void PostingsIndex::AddSnippet(const Snippet& snippet) {
  Posting posting;
  posting.snippet = snippet.id;
  posting.source = snippet.source;
  posting.timestamp = snippet.timestamp;
  for (const auto& [term, tf] : snippet.entities.entries()) {
    posting.tf = tf;
    Post(&entity_postings_.GetOrInsert(term), posting);
  }
  for (const auto& [term, tf] : snippet.keywords.entries()) {
    posting.tf = tf;
    Post(&keyword_postings_.GetOrInsert(term), posting);
  }
  if (!snippet.event_type.empty()) {
    posting.tf = 1.0;
    Post(&event_postings_.GetOrInsert(snippet.event_type), posting);
  }
  ++num_documents_;
  total_length_ += snippet.entities.Sum() + snippet.keywords.Sum();
}

void PostingsIndex::RemoveSnippet(const Snippet& snippet) {
  for (const auto& [term, tf] : snippet.entities.entries()) {
    Unpost(&entity_postings_, term, snippet.id);
  }
  for (const auto& [term, tf] : snippet.keywords.entries()) {
    Unpost(&keyword_postings_, term, snippet.id);
  }
  if (!snippet.event_type.empty()) {
    Unpost(&event_postings_, std::string_view(snippet.event_type),
           snippet.id);
  }
  SP_CHECK(num_documents_ > 0);
  --num_documents_;
  total_length_ -= snippet.entities.Sum() + snippet.keywords.Sum();
}

const PostingsIndex::PostingList* PostingsIndex::Postings(
    Field field, text::TermId term) const {
  SP_CHECK(field == Field::kEntity || field == Field::kKeyword);
  const TermPostings& postings =
      field == Field::kEntity ? entity_postings_ : keyword_postings_;
  return postings.Find(term);
}

const PostingsIndex::PostingList* PostingsIndex::EventTypePostings(
    std::string_view event_type) const {
  return event_postings_.Find(event_type);
}

std::vector<std::pair<std::string, size_t>> PostingsIndex::EventTypes()
    const {
  std::vector<std::pair<std::string, size_t>> out;
  out.reserve(event_postings_.size());
  event_postings_.ForEach(
      [&out](const std::string& type, const PostingList& postings) {
        out.push_back({type, postings.size()});
      });
  // The HAMT iterates in hash order; enumeration promises lexicographic.
  std::sort(out.begin(), out.end());
  return out;
}

const std::string* PostingsIndex::EventTypeIgnoringCase(
    std::string_view lowered) const {
  auto folds_to = [](char c, char lower) {
    return std::tolower(static_cast<unsigned char>(c)) ==
           static_cast<unsigned char>(lower);
  };
  const std::string* best = nullptr;
  event_postings_.ForEach([&](const std::string& type, const PostingList&) {
    if (std::equal(type.begin(), type.end(), lowered.begin(), lowered.end(),
                   folds_to) &&
        (best == nullptr || type < *best)) {
      best = &type;
    }
  });
  return best;
}

size_t PostingsIndex::DocumentFrequency(Field field,
                                        text::TermId term) const {
  const PostingList* postings = Postings(field, term);
  return postings == nullptr ? 0 : postings->size();
}

size_t PostingsIndex::EventTypeFrequency(std::string_view event_type) const {
  const PostingList* postings = EventTypePostings(event_type);
  return postings == nullptr ? 0 : postings->size();
}

size_t PostingsIndex::num_terms(Field field) const {
  switch (field) {
    case Field::kEntity:
      return entity_postings_.size();
    case Field::kKeyword:
      return keyword_postings_.size();
    case Field::kEventType:
      return event_postings_.size();
  }
  return 0;
}

PostingsIndex PostingsIndex::Freeze() const {
  PostingsIndex frozen;
  frozen.entity_postings_ = entity_postings_;    // O(1) structural shares.
  frozen.keyword_postings_ = keyword_postings_;
  frozen.event_postings_ = event_postings_;
  frozen.num_documents_ = num_documents_;
  frozen.num_postings_ = num_postings_;
  frozen.total_length_ = total_length_;
  return frozen;
}

}  // namespace storypivot::search
