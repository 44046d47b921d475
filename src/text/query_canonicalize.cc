#include "text/query_canonicalize.h"

#include <vector>

#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace storypivot::text {

TermId CanonicalizeEntityQuery(const Gazetteer& gazetteer,
                               const Vocabulary& vocabulary,
                               std::string_view query) {
  TermId exact = vocabulary.Lookup(query);
  if (exact != kInvalidTermId) return exact;

  std::vector<Token> tokens = Tokenize(query);
  if (tokens.empty()) return kInvalidTermId;
  std::vector<EntityMention> mentions = gazetteer.FindMentions(tokens);
  if (!mentions.empty()) {
    // Longest mention wins; FindMentions already prefers longest-first at
    // each position, so the widest span among the results is the best
    // reading of the query.
    const EntityMention* best = &mentions.front();
    for (const EntityMention& mention : mentions) {
      if (mention.token_end - mention.token_begin >
          best->token_end - best->token_begin) {
        best = &mention;
      }
    }
    return best->entity;
  }

  // Case-insensitive match, lowest id wins so the result is deterministic.
  return vocabulary.LookupIgnoringCase(ToLower(query));
}

TermId CanonicalizeKeywordQuery(const Vocabulary& vocabulary,
                                std::string_view query) {
  TermId exact = vocabulary.Lookup(query);
  if (exact != kInvalidTermId) return exact;

  std::string lowered = ToLower(query);
  TermId lower = vocabulary.Lookup(lowered);
  if (lower != kInvalidTermId) return lower;

  return vocabulary.Lookup(PorterStem(lowered));
}

}  // namespace storypivot::text
