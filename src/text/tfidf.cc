#include "text/tfidf.h"

#include <cmath>

#include "util/logging.h"

namespace storypivot::text {

void DocumentFrequency::AddDocument(const TermVector& terms) {
  ++num_documents_;
  for (const auto& [term, weight] : terms.entries()) {
    if (weight <= 0.0) continue;
    if (term >= df_.size()) df_.resize(term + 1, 0);
    ++df_[term];
  }
}

void DocumentFrequency::RemoveDocument(const TermVector& terms) {
  SP_CHECK(num_documents_ > 0);
  --num_documents_;
  for (const auto& [term, weight] : terms.entries()) {
    if (weight <= 0.0) continue;
    if (term < df_.size() && df_[term] > 0) --df_[term];
  }
}

int64_t DocumentFrequency::FrequencyOf(TermId term) const {
  if (term >= df_.size()) return 0;
  return df_[term];
}

double DocumentFrequency::Idf(TermId term) const {
  double n = static_cast<double>(num_documents_);
  double df = static_cast<double>(FrequencyOf(term));
  return std::log((n + 1.0) / (df + 1.0)) + 1.0;
}

}  // namespace storypivot::text
