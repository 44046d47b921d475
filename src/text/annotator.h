#ifndef STORYPIVOT_TEXT_ANNOTATOR_H_
#define STORYPIVOT_TEXT_ANNOTATOR_H_

#include <string_view>

#include "text/gazetteer.h"
#include "text/term_vector.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace storypivot::text {

/// The structured content extracted from one piece of text: an entity
/// histogram and a stemmed-keyword histogram. This is the "content" of an
/// information snippet in the paper's data model (§2.1).
struct Annotation {
  /// Entity mention counts (TermIds from the entity vocabulary).
  TermVector entities;
  /// Stemmed, stopword-filtered keyword counts (TermIds from the keyword
  /// vocabulary).
  TermVector keywords;
  /// Total number of word tokens in the input.
  size_t num_tokens = 0;
};

/// Turns raw document text into an `Annotation` — the StoryPivot
/// replacement for the paper's black-box EventRegistry + OpenCalais
/// extraction pipeline: tokenize, match gazetteer entities, stopword-filter
/// and Porter-stem the remaining words into keywords.
class AnnotationPipeline {
 public:
  /// Both the gazetteer and the keyword vocabulary must outlive the
  /// pipeline.
  AnnotationPipeline(const Gazetteer* gazetteer,
                     Vocabulary* keyword_vocabulary);

  AnnotationPipeline(const AnnotationPipeline&) = delete;
  AnnotationPipeline& operator=(const AnnotationPipeline&) = delete;

  /// Annotates a piece of text. Entity mention tokens are consumed and do
  /// not additionally appear as keywords.
  Annotation Annotate(std::string_view input) const;

 private:
  const Gazetteer* gazetteer_;
  Vocabulary* keyword_vocabulary_;
};

}  // namespace storypivot::text

#endif  // STORYPIVOT_TEXT_ANNOTATOR_H_
