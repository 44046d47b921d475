#include "search/query_pipeline.h"

#include <utility>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace storypivot::search {

namespace {

/// Entity-vocabulary match for a (lower-case) token: an exact match
/// wins, otherwise the lowest id that folds to the token.
text::TermId EntityTermOfToken(const text::Vocabulary& vocabulary,
                               const std::string& token) {
  text::TermId exact = vocabulary.Lookup(token);
  if (exact != text::kInvalidTermId) return exact;
  return vocabulary.LookupIgnoringCase(token);
}

/// Event-type match against the types the index has posted: an exact
/// match wins, otherwise the lexicographically smallest type that folds
/// to the token.
std::string EventTypeOfToken(const PostingsIndex& index,
                             const std::string& token) {
  if (index.EventTypePostings(token) != nullptr) return token;
  const std::string* folded = index.EventTypeIgnoringCase(token);
  return folded == nullptr ? std::string() : *folded;
}

}  // namespace

ParsedQuery ParseQuery(const text::Gazetteer& gazetteer,
                       const text::Vocabulary& entities,
                       const text::Vocabulary& keywords,
                       const PostingsIndex& index, std::string_view query) {
  ParsedQuery out;
  std::vector<text::Token> tokens = text::Tokenize(query);
  if (tokens.empty()) return out;

  auto add_term = [&out](QueryTerm term) {
    for (const QueryTerm& existing : out.terms) {
      if (existing.field != term.field) continue;
      if (term.field == Field::kEventType
              ? existing.event_type == term.event_type
              : existing.term == term.term) {
        return;  // Duplicate resolution.
      }
    }
    out.terms.push_back(std::move(term));
  };

  // Multi-token entity aliases first: the gazetteer consumes its tokens,
  // exactly as AnnotationPipeline does on ingest.
  std::vector<bool> consumed(tokens.size(), false);
  for (const text::EntityMention& mention : gazetteer.FindMentions(tokens)) {
    QueryTerm term;
    term.field = Field::kEntity;
    term.term = mention.entity;
    for (size_t i = mention.token_begin; i < mention.token_end; ++i) {
      if (!term.surface.empty()) term.surface += ' ';
      term.surface += tokens[i].text;
      consumed[i] = true;
    }
    add_term(std::move(term));
  }

  for (size_t i = 0; i < tokens.size(); ++i) {
    if (consumed[i]) continue;
    const std::string& word = tokens[i].text;

    text::TermId entity = EntityTermOfToken(entities, word);
    if (entity != text::kInvalidTermId) {
      add_term({Field::kEntity, entity, {}, word});
      continue;
    }

    if (!text::IsStopword(word)) {
      // Exact and stemmed keyword forms, mirroring ingest stemming.
      text::TermId keyword = keywords.Lookup(word);
      if (keyword == text::kInvalidTermId) {
        keyword = keywords.Lookup(text::PorterStem(word));
      }
      if (keyword != text::kInvalidTermId) {
        add_term({Field::kKeyword, keyword, {}, word});
        continue;
      }
    } else {
      continue;  // Unmatched stopwords are dropped silently.
    }

    std::string event_type = EventTypeOfToken(index, word);
    if (!event_type.empty()) {
      add_term({Field::kEventType, text::kInvalidTermId,
                std::move(event_type), word});
      continue;
    }

    out.unmatched.push_back(word);
  }
  return out;
}

}  // namespace storypivot::search
