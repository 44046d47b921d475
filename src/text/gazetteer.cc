#include "text/gazetteer.h"

#include <algorithm>

#include "util/logging.h"

namespace storypivot::text {

Gazetteer::Gazetteer(Vocabulary* entity_vocabulary)
    : vocabulary_(entity_vocabulary) {
  SP_CHECK(entity_vocabulary != nullptr);
}

TermId Gazetteer::AddEntity(std::string_view canonical_name) {
  TermId id = vocabulary_->Intern(canonical_name);
  AddAlias(id, canonical_name);
  return id;
}

void Gazetteer::AddAlias(TermId entity, std::string_view alias) {
  std::vector<Token> tokens = Tokenize(alias);
  if (tokens.empty()) return;
  Phrase phrase;
  phrase.entity = entity;
  phrase.tokens.reserve(tokens.size());
  for (Token& t : tokens) phrase.tokens.push_back(std::move(t.text));
  // Journal the normalised form: re-tokenising it yields these exact
  // tokens, so replaying the journal reproduces the index.
  std::string normalised;
  for (const std::string& t : phrase.tokens) {
    if (!normalised.empty()) normalised += ' ';
    normalised += t;
  }
  alias_log_.emplace_back(entity, std::move(normalised));
  std::string head = phrase.tokens.front();
  std::vector<Phrase>& bucket = index_[head];
  bucket.push_back(std::move(phrase));
  // Keep longest phrases first so scanning takes the longest match.
  std::stable_sort(bucket.begin(), bucket.end(),
                   [](const Phrase& a, const Phrase& b) {
                     return a.tokens.size() > b.tokens.size();
                   });
  ++num_aliases_;
}

std::vector<EntityMention> Gazetteer::FindMentions(
    const std::vector<Token>& tokens) const {
  std::vector<EntityMention> mentions;
  size_t i = 0;
  while (i < tokens.size()) {
    auto it = index_.find(tokens[i].text);
    if (it == index_.end()) {
      ++i;
      continue;
    }
    bool matched = false;
    for (const Phrase& phrase : it->second) {
      size_t len = phrase.tokens.size();
      if (i + len > tokens.size()) continue;
      bool all_equal = true;
      for (size_t k = 1; k < len; ++k) {
        if (tokens[i + k].text != phrase.tokens[k]) {
          all_equal = false;
          break;
        }
      }
      if (!all_equal) continue;
      EntityMention mention;
      mention.entity = phrase.entity;
      mention.token_begin = i;
      mention.token_end = i + len;
      mentions.push_back(mention);
      i += len;
      matched = true;
      break;
    }
    if (!matched) ++i;
  }
  return mentions;
}

}  // namespace storypivot::text
