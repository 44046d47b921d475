#include "search/postings_index.h"

#include <algorithm>
#include <cctype>

#include "util/logging.h"

namespace storypivot::search {

namespace {

/// lower_bound over a postings list sorted by snippet id.
std::vector<Posting>::iterator FindPosting(std::vector<Posting>* list,
                                           SnippetId snippet) {
  return std::lower_bound(
      list->begin(), list->end(), snippet,
      [](const Posting& p, SnippetId id) { return p.snippet < id; });
}

}  // namespace

void PostingsIndex::Post(PostingList* box, const Posting& posting) {
  std::vector<Posting>* list = box->Mutate();
  auto it = FindPosting(list, posting.snippet);
  SP_CHECK(it == list->end() || it->snippet != posting.snippet);
  list->insert(it, posting);
  ++num_postings_;
}

void PostingsIndex::Unpost(TermPostings* postings, text::TermId term,
                           SnippetId snippet) {
  PostingList* box = postings->FindMutable(term);
  SP_CHECK(box != nullptr);
  std::vector<Posting>* list = box->Mutate();
  auto it = FindPosting(list, snippet);
  SP_CHECK(it != list->end() && it->snippet == snippet);
  list->erase(it);
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
    PostingList* box =
        event_postings_.FindMutable(std::string_view(snippet.event_type));
    SP_CHECK(box != nullptr);
    std::vector<Posting>* list = box->Mutate();
    auto it = FindPosting(list, snippet.id);
    SP_CHECK(it != list->end() && it->snippet == snippet.id);
    list->erase(it);
    --num_postings_;
    if (list->empty()) {
      event_postings_.Erase(std::string_view(snippet.event_type));
    }
  }
  SP_CHECK(num_documents_ > 0);
  --num_documents_;
  total_length_ -= snippet.entities.Sum() + snippet.keywords.Sum();
}

const std::vector<Posting>* PostingsIndex::Postings(
    Field field, text::TermId term) const {
  SP_CHECK(field == Field::kEntity || field == Field::kKeyword);
  const TermPostings& postings =
      field == Field::kEntity ? entity_postings_ : keyword_postings_;
  const PostingList* list = postings.Find(term);
  return list == nullptr ? nullptr : &list->read();
}

const std::vector<Posting>* PostingsIndex::EventTypePostings(
    std::string_view event_type) const {
  const PostingList* list = event_postings_.Find(event_type);
  return list == nullptr ? nullptr : &list->read();
}

std::vector<std::pair<std::string, size_t>> PostingsIndex::EventTypes()
    const {
  std::vector<std::pair<std::string, size_t>> out;
  out.reserve(event_postings_.size());
  event_postings_.ForEach(
      [&out](const std::string& type, const PostingList& postings) {
        out.push_back({type, postings.read().size()});
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
  const std::vector<Posting>* postings = Postings(field, term);
  return postings == nullptr ? 0 : postings->size();
}

size_t PostingsIndex::EventTypeFrequency(std::string_view event_type) const {
  const std::vector<Posting>* postings = EventTypePostings(event_type);
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
