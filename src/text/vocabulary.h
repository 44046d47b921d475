#ifndef STORYPIVOT_TEXT_VOCABULARY_H_
#define STORYPIVOT_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace storypivot::text {

/// Dense integer id of an interned term. Ids are assigned sequentially
/// starting at 0 and are stable for the lifetime of the Vocabulary.
using TermId = uint32_t;

/// Sentinel for "not interned".
inline constexpr TermId kInvalidTermId = 0xffffffffu;

/// Bidirectional string <-> TermId interner. StoryPivot keeps two
/// vocabularies per engine: one for entities, one for description keywords.
class Vocabulary {
 public:
  Vocabulary() = default;

  // Vocabularies are shared by reference; copying one is almost always a
  // bug, so it is disallowed. Moves are fine.
  Vocabulary(const Vocabulary&) = delete;
  Vocabulary& operator=(const Vocabulary&) = delete;
  Vocabulary(Vocabulary&&) = default;
  Vocabulary& operator=(Vocabulary&&) = default;

  /// Returns the id for `term`, interning it if necessary.
  TermId Intern(std::string_view term);

  /// Returns the id for `term`, or kInvalidTermId if it was never interned.
  TermId Lookup(std::string_view term) const;

  /// Returns the lowest id whose ASCII-lower-cased form equals `lowered`
  /// (which must itself be lower-case), or kInvalidTermId. O(1): one
  /// exact lookup plus one lookup in the case-folded index.
  TermId LookupIgnoringCase(std::string_view lowered) const;

  /// Returns the string for an id. Requires a valid id from this vocabulary.
  const std::string& TermOf(TermId id) const;

  /// Number of distinct interned terms.
  size_t size() const { return terms_.size(); }

 private:
  std::unordered_map<std::string, TermId> index_;
  /// Lower-cased form -> lowest id, for terms that are not lower-case
  /// already (a lower-case term is found through index_), so vocabularies
  /// of lower-case keyword stems add no entries.
  std::unordered_map<std::string, TermId> folded_;
  std::vector<std::string> terms_;
};

}  // namespace storypivot::text

#endif  // STORYPIVOT_TEXT_VOCABULARY_H_
