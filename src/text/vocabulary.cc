#include "text/vocabulary.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace storypivot::text {

TermId Vocabulary::Intern(std::string_view term) {
  auto it = index_.find(std::string(term));
  if (it != index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  index_.emplace(terms_.back(), id);
  std::string lowered = ToLower(term);
  // emplace keeps an existing entry, so the lowest id stays.
  if (lowered != term) folded_.emplace(std::move(lowered), id);
  return id;
}

TermId Vocabulary::Lookup(std::string_view term) const {
  auto it = index_.find(std::string(term));
  return it == index_.end() ? kInvalidTermId : it->second;
}

TermId Vocabulary::LookupIgnoringCase(std::string_view lowered) const {
  auto it = folded_.find(std::string(lowered));
  TermId folded = it == folded_.end() ? kInvalidTermId : it->second;
  return std::min(Lookup(lowered), folded);  // kInvalidTermId is the max.
}

const std::string& Vocabulary::TermOf(TermId id) const {
  SP_CHECK(id < terms_.size());
  return terms_[id];
}

}  // namespace storypivot::text
