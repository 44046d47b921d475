#include "core/similarity.h"

#include <algorithm>
#include <cmath>

namespace storypivot {
namespace {
constexpr double kEps = 1e-12;

double SublinearTf(double count) {
  return count > 0.0 ? 1.0 + std::log(count) : 0.0;
}

/// WeightedJaccard of `a` scaled by `a_scale` and `b` scaled by `b_scale`,
/// computed as TermVector::WeightedJaccard computes it on the copies that
/// TermVector::Merge(v, scale) would make.
double ScaledWeightedJaccard(const text::TermVector& a, double a_scale,
                             const text::TermVector& b, double b_scale) {
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  double min_sum = 0.0, max_sum = 0.0;
  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (j >= eb.size() || (i < ea.size() && ea[i].first < eb[j].first)) {
      max_sum += ea[i++].second * a_scale;
    } else if (i >= ea.size() || eb[j].first < ea[i].first) {
      max_sum += eb[j++].second * b_scale;
    } else {
      const double va = ea[i++].second * a_scale;
      const double vb = eb[j++].second * b_scale;
      min_sum += std::min(va, vb);
      max_sum += std::max(va, vb);
    }
  }
  if (max_sum <= kEps) return 0.0;
  return min_sum / max_sum;
}
}  // namespace

double CosineFromNorms(double dot, double a_norm, double b_norm) {
  if (a_norm <= kEps || b_norm <= kEps) return 0.0;
  return dot / (std::sqrt(a_norm) * std::sqrt(b_norm));
}

IdfTable::IdfTable(const SimilarityModel& model)
    : df_(model.document_frequency()) {
  if (df_ == nullptr) return;
  idf_.resize(df_->num_terms());
  for (text::TermId term = 0; term < idf_.size(); ++term) {
    idf_[term] = df_->Idf(term);
  }
}

double IdfTable::Weight(text::TermId term, double count) const {
  double w = SublinearTf(count);
  if (df_ != nullptr) w *= term < idf_.size() ? idf_[term] : df_->Idf(term);
  return w;
}

double IdfTable::SquaredNorm(const text::TermVector& v) const {
  double norm = 0.0;
  for (const auto& [term, count] : v.entries()) {
    const double w = Weight(term, count);
    norm += w * w;
  }
  return norm;
}

double IdfTable::Cosine(const text::TermVector& a, double a_norm,
                        const text::TermVector& b, double b_norm) const {
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  double dot = 0.0;
  size_t i = 0, j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i].first < eb[j].first) {
      ++i;
    } else if (eb[j].first < ea[i].first) {
      ++j;
    } else {
      dot += Weight(ea[i].first, ea[i].second) *
             Weight(eb[j].first, eb[j].second);
      ++i;
      ++j;
    }
  }
  return CosineFromNorms(dot, a_norm, b_norm);
}

SimilarityModel::SimilarityModel(const SimilarityConfig& config,
                                 const text::DocumentFrequency* df)
    : config_(config), df_(df) {}

double SimilarityModel::IdfCosine(const text::TermVector& a,
                                  const text::TermVector& b) const {
  auto weight = [&](text::TermId term, double count) {
    double w = SublinearTf(count);
    if (df_ != nullptr) w *= df_->Idf(term);
    return w;
  };
  double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (j >= eb.size() || (i < ea.size() && ea[i].first < eb[j].first)) {
      double w = weight(ea[i].first, ea[i].second);
      norm_a += w * w;
      ++i;
    } else if (i >= ea.size() || eb[j].first < ea[i].first) {
      double w = weight(eb[j].first, eb[j].second);
      norm_b += w * w;
      ++j;
    } else {
      double wa = weight(ea[i].first, ea[i].second);
      double wb = weight(eb[j].first, eb[j].second);
      dot += wa * wb;
      norm_a += wa * wa;
      norm_b += wb * wb;
      ++i;
      ++j;
    }
  }
  return CosineFromNorms(dot, norm_a, norm_b);
}

double SimilarityModel::SnippetSimilarity(const Snippet& a,
                                          const Snippet& b) const {
  num_comparisons_.fetch_add(1, std::memory_order_relaxed);
  double entity_sim = a.entities.WeightedJaccard(b.entities);
  double keyword_sim = IdfCosine(a.keywords, b.keywords);
  return kEntityWeight * entity_sim + kKeywordWeight * keyword_sim;
}

double SimilarityModel::SnippetStorySimilarity(const Snippet& snippet,
                                               const Story& story) const {
  num_comparisons_.fetch_add(1, std::memory_order_relaxed);
  // Entity overlap against the story histogram: use set-containment-style
  // weighted Jaccard of the snippet against the story's *support* scaled
  // to the snippet's magnitude — a plain weighted Jaccard would vanish for
  // large stories. We therefore compare against the story's histogram
  // normalised to per-snippet scale.
  double scale = story.empty() ? 1.0 : 1.0 / static_cast<double>(story.size());
  text::TermVector scaled;
  scaled.Merge(story.entities(), scale);
  double entity_sim = snippet.entities.WeightedJaccard(scaled);
  double keyword_sim = IdfCosine(snippet.keywords, story.keywords());
  return kEntityWeight * entity_sim + kKeywordWeight * keyword_sim;
}

double SimilarityModel::StorySimilarity(const Story& a,
                                        const Story& b) const {
  num_comparisons_.fetch_add(1, std::memory_order_relaxed);
  // Normalise both histograms to per-snippet scale so story size does not
  // dominate the Jaccard.
  double scale_a = a.empty() ? 1.0 : 1.0 / static_cast<double>(a.size());
  double scale_b = b.empty() ? 1.0 : 1.0 / static_cast<double>(b.size());
  text::TermVector ea, eb;
  ea.Merge(a.entities(), scale_a);
  eb.Merge(b.entities(), scale_b);
  double entity_sim = ea.WeightedJaccard(eb);
  double keyword_sim = IdfCosine(a.keywords(), b.keywords());
  return kEntityWeight * entity_sim + kKeywordWeight * keyword_sim;
}

double SimilarityModel::StorySimilarity(const Story& a, double a_norm,
                                        const Story& b, double b_norm,
                                        const IdfTable& idf) const {
  num_comparisons_.fetch_add(1, std::memory_order_relaxed);
  double scale_a = a.empty() ? 1.0 : 1.0 / static_cast<double>(a.size());
  double scale_b = b.empty() ? 1.0 : 1.0 / static_cast<double>(b.size());
  double entity_sim =
      ScaledWeightedJaccard(a.entities(), scale_a, b.entities(), scale_b);
  double keyword_sim = idf.Cosine(a.keywords(), a_norm, b.keywords(), b_norm);
  return kEntityWeight * entity_sim + kKeywordWeight * keyword_sim;
}

double SimilarityModel::TemporalAffinity(Timestamp a_begin, Timestamp a_end,
                                         Timestamp b_begin, Timestamp b_end,
                                         Timestamp tolerance) {
  Timestamp overlap =
      std::min(a_end, b_end) - std::max(a_begin, b_begin);
  if (overlap >= 0) return 1.0;
  Timestamp gap = -overlap;
  if (tolerance <= 0 || gap >= tolerance) return 0.0;
  return 1.0 - static_cast<double>(gap) / static_cast<double>(tolerance);
}

}  // namespace storypivot
