#include "text/annotator.h"

#include <vector>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "util/logging.h"

namespace storypivot::text {

AnnotationPipeline::AnnotationPipeline(const Gazetteer* gazetteer,
                                       Vocabulary* keyword_vocabulary)
    : gazetteer_(gazetteer), keyword_vocabulary_(keyword_vocabulary) {
  SP_CHECK(gazetteer_ != nullptr);
  SP_CHECK(keyword_vocabulary_ != nullptr);
}

Annotation AnnotationPipeline::Annotate(std::string_view input) const {
  Annotation out;
  std::vector<Token> tokens = Tokenize(input);
  out.num_tokens = tokens.size();

  std::vector<EntityMention> mentions = gazetteer_->FindMentions(tokens);
  std::vector<bool> consumed(tokens.size(), false);
  std::vector<TermVector::Entry> entity_entries;
  entity_entries.reserve(mentions.size());
  for (const EntityMention& m : mentions) {
    entity_entries.push_back({m.entity, 1.0});
    for (size_t i = m.token_begin; i < m.token_end; ++i) consumed[i] = true;
  }
  out.entities = TermVector::FromEntries(std::move(entity_entries));

  std::vector<TermVector::Entry> keyword_entries;
  keyword_entries.reserve(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (consumed[i]) continue;
    const std::string& word = tokens[i].text;
    if (word.size() < 2) continue;
    if (IsStopword(word)) continue;
    std::string stem = PorterStem(word);
    if (stem.empty()) continue;
    keyword_entries.push_back({keyword_vocabulary_->Intern(stem), 1.0});
  }
  out.keywords = TermVector::FromEntries(std::move(keyword_entries));
  return out;
}

}  // namespace storypivot::text
