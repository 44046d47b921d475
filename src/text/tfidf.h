#ifndef STORYPIVOT_TEXT_TFIDF_H_
#define STORYPIVOT_TEXT_TFIDF_H_

#include <cstdint>
#include <vector>

#include "text/term_vector.h"
#include "text/vocabulary.h"

namespace storypivot::text {

/// Incrementally tracks document frequencies so that TF-IDF weights can be
/// computed in a streaming setting. Supports removal, which StoryPivot
/// needs when documents are deleted from the system.
class DocumentFrequency {
 public:
  DocumentFrequency() = default;

  /// Records one document whose distinct terms are the support of `terms`.
  void AddDocument(const TermVector& terms);

  /// Removes a previously added document. The caller must pass the same
  /// term support that was added.
  void RemoveDocument(const TermVector& terms);

  /// Number of documents seen (adds minus removes).
  int64_t num_documents() const { return num_documents_; }

  /// One past the highest term id ever recorded; every later term is
  /// unseen.
  size_t num_terms() const { return df_.size(); }

  /// Document frequency of `term` (0 if unseen).
  int64_t FrequencyOf(TermId term) const;

  /// Smoothed inverse document frequency:
  ///   idf(t) = ln((N + 1) / (df(t) + 1)) + 1.
  /// Always >= 1 - epsilon even for ubiquitous terms, and well-defined for
  /// unseen terms.
  double Idf(TermId term) const;

 private:
  std::vector<int64_t> df_;  // Indexed by TermId.
  int64_t num_documents_ = 0;
};

}  // namespace storypivot::text

#endif  // STORYPIVOT_TEXT_TFIDF_H_
