#ifndef STORYPIVOT_SEARCH_QUERY_PIPELINE_H_
#define STORYPIVOT_SEARCH_QUERY_PIPELINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "search/postings_index.h"
#include "text/gazetteer.h"
#include "text/vocabulary.h"

namespace storypivot::search {

/// One resolved query term: which field it searches and, for vocabulary
/// fields, the canonical TermId ingest would have produced.
struct QueryTerm {
  Field field = Field::kKeyword;
  /// Canonical term id (kEntity / kKeyword fields).
  text::TermId term = text::kInvalidTermId;
  /// Canonical event type (kEventType field).
  std::string event_type;
  /// The query text this term came from, for display/diagnostics.
  std::string surface;
};

/// A free-text query after canonicalization: resolved terms (deduplicated,
/// in resolution order) plus the tokens that matched nothing (reported so
/// callers can surface "ignored: ..." instead of silently dropping them).
struct ParsedQuery {
  std::vector<QueryTerm> terms;
  std::vector<std::string> unmatched;

  [[nodiscard]] bool empty() const { return terms.empty(); }
};

/// Canonicalizes a free-text query through the same text path ingest
/// uses, fixing the historical alias/stem mismatch between queries and
/// indexed content (DESIGN.md §11):
///
///   1. tokenize (lowercasing, like AnnotationPipeline);
///   2. gazetteer alias mentions become entity terms ("MH17" resolves to
///      its canonical entity), consuming their tokens;
///   3. each remaining token is tried as an entity name (an exact match
///      wins, otherwise the lowest id whose lower-cased form equals the
///      token — one Vocabulary::LookupIgnoringCase, not a vocabulary
///      scan), then — stopwords excluded — as a keyword via Porter
///      stemming, then as an event type posted in `index` (an exact match
///      wins, otherwise the lexicographically smallest type that folds to
///      the token);
///   4. anything left lands in `unmatched`.
///
/// Duplicate resolutions collapse to one term. The text state is the
/// live engine's for SearchEngine and the frozen copy for ReadSnapshot —
/// one function, so the two parse identically on equal state.
[[nodiscard]] ParsedQuery ParseQuery(const text::Gazetteer& gazetteer,
                                     const text::Vocabulary& entities,
                                     const text::Vocabulary& keywords,
                                     const PostingsIndex& index,
                                     std::string_view query);

}  // namespace storypivot::search

#endif  // STORYPIVOT_SEARCH_QUERY_PIPELINE_H_
