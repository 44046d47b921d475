#ifndef STORYPIVOT_TEXT_QUERY_CANONICALIZE_H_
#define STORYPIVOT_TEXT_QUERY_CANONICALIZE_H_

#include <string_view>

#include "text/gazetteer.h"
#include "text/vocabulary.h"

namespace storypivot::text {

/// Resolves a user-typed entity query to the canonical entity TermId the
/// ingest pipeline would have produced for the same surface form — the
/// query-side mirror of AnnotationPipeline (queries and snippets must
/// agree on canonicalization, or alias queries silently miss).
///
/// Resolution order:
///   1. exact vocabulary match (canonical names typed verbatim);
///   2. gazetteer alias match over the tokenized query ("MH17" finds the
///      entity whose alias list contains mh17), longest mention wins;
///   3. case-insensitive vocabulary match ("ukraine" -> "Ukraine"): the
///      lowest id among all terms whose lower-cased form equals the
///      lower-cased query, one Vocabulary::LookupIgnoringCase.
///
/// Returns kInvalidTermId when nothing matches.
[[nodiscard]] TermId CanonicalizeEntityQuery(const Gazetteer& gazetteer,
                                             const Vocabulary& vocabulary,
                                             std::string_view query);

/// Resolves a user-typed keyword query to the TermId of its indexed form.
/// The ingest pipeline stores keywords lowercased and Porter-stemmed, so
/// a raw Lookup of the surface form misses ("bombing" never matches the
/// stored stem "bomb"). Resolution order:
///   1. exact vocabulary match (already-stemmed queries, and vocabularies
///      imported unstemmed keep working);
///   2. lowercased match;
///   3. Porter stem of the lowercased query.
///
/// Returns kInvalidTermId when nothing matches.
[[nodiscard]] TermId CanonicalizeKeywordQuery(const Vocabulary& vocabulary,
                                              std::string_view query);

}  // namespace storypivot::text

#endif  // STORYPIVOT_TEXT_QUERY_CANONICALIZE_H_
