#ifndef STORYPIVOT_TEXT_GAZETTEER_H_
#define STORYPIVOT_TEXT_GAZETTEER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace storypivot::text {

/// A detected entity mention in a token stream.
struct EntityMention {
  /// Id of the canonical entity in the entity vocabulary.
  TermId entity = kInvalidTermId;
  /// Index of the first matched token.
  size_t token_begin = 0;
  /// One past the last matched token.
  size_t token_end = 0;
};

/// Dictionary-based named-entity recogniser. Entities are registered with a
/// canonical name plus any number of aliases; each alias is a multi-word
/// phrase. Recognition scans a token stream and greedily takes the longest
/// alias match at each position (a standard gazetteer NER strategy — this
/// substitutes for the paper's OpenCalais annotator).
class Gazetteer {
 public:
  /// The gazetteer interns canonical names into `entity_vocabulary`, which
  /// must outlive the gazetteer.
  explicit Gazetteer(Vocabulary* entity_vocabulary);

  Gazetteer(const Gazetteer&) = delete;
  Gazetteer& operator=(const Gazetteer&) = delete;

  /// Registers an entity under its canonical name; the canonical name is
  /// also an alias. Returns the entity's TermId.
  TermId AddEntity(std::string_view canonical_name);

  /// Registers an additional alias for an existing entity id.
  void AddAlias(TermId entity, std::string_view alias);

  /// Finds all non-overlapping mentions in `tokens` (longest match first,
  /// scanning left to right).
  std::vector<EntityMention> FindMentions(
      const std::vector<Token>& tokens) const;

  /// Number of registered aliases.
  size_t num_aliases() const { return num_aliases_; }

  /// Every registered alias as (entity id, normalised alias text), in
  /// registration order. Replaying these through AddAlias on a gazetteer
  /// whose vocabulary holds the same entities reproduces this gazetteer
  /// exactly (including same-length tie-breaking, which follows
  /// registration order) — the hook snapshots and the write-ahead log use
  /// to persist extraction state.
  const std::vector<std::pair<TermId, std::string>>& aliases() const {
    return alias_log_;
  }

  const Vocabulary& vocabulary() const { return *vocabulary_; }

 private:
  struct Phrase {
    std::vector<std::string> tokens;  // Lowercased alias tokens.
    TermId entity = kInvalidTermId;
  };

  Vocabulary* vocabulary_;
  // First alias token -> candidate phrases, longest first.
  std::unordered_map<std::string, std::vector<Phrase>> index_;
  size_t num_aliases_ = 0;
  // Registration-order journal of (entity, normalised alias) for
  // serialisation; see aliases().
  std::vector<std::pair<TermId, std::string>> alias_log_;
};

}  // namespace storypivot::text

#endif  // STORYPIVOT_TEXT_GAZETTEER_H_
