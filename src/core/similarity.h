#ifndef STORYPIVOT_CORE_SIMILARITY_H_
#define STORYPIVOT_CORE_SIMILARITY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "model/snippet.h"
#include "model/story.h"
#include "text/term_vector.h"
#include "text/tfidf.h"

namespace storypivot {

class IdfTable;

/// Weight of entity overlap (weighted Jaccard over entity histograms) in
/// every snippet and story score.
inline constexpr double kEntityWeight = 0.55;
/// Weight of keyword similarity (IDF-weighted cosine).
inline constexpr double kKeywordWeight = 0.45;

/// Identification thresholds of the snippet/story similarity model.
struct SimilarityConfig {
  /// A snippet joins its best story when the blended score reaches this.
  double assign_threshold = 0.30;
  /// Two existing stories bridged by one snippet merge when both score at
  /// least this (incremental merge, §2.2 / incremental record linkage).
  double merge_threshold = 0.55;
};

/// Stateless scoring functions over snippets and stories, backed by
/// streaming document-frequency statistics. Counts every pairwise
/// comparison so benches can report the work done by each
/// identification mode.
class SimilarityModel {
 public:
  /// `df` may be nullptr, in which case keywords are weighed by plain
  /// sublinear TF, without IDF.
  SimilarityModel(const SimilarityConfig& config,
                  const text::DocumentFrequency* df);

  const SimilarityConfig& config() const { return config_; }

  /// Content similarity of two snippets in [0, 1]:
  /// kEntityWeight * WeightedJaccard(entities) +
  /// kKeywordWeight * IdfCosine(keywords).
  double SnippetSimilarity(const Snippet& a, const Snippet& b) const;

  /// Content similarity between a snippet and a story's aggregate
  /// histograms (the story "centroid").
  double SnippetStorySimilarity(const Snippet& snippet,
                                const Story& story) const;

  /// Content similarity between two stories' aggregates.
  double StorySimilarity(const Story& a, const Story& b) const;

  /// StorySimilarity(a, b) with each story's keyword norm precomputed by
  /// `idf.SquaredNorm`: bit-identical, without the scaled entity copies
  /// or the std::log calls of unshared keywords.
  double StorySimilarity(const Story& a, double a_norm, const Story& b,
                         double b_norm, const IdfTable& idf) const;

  /// IDF-weighted cosine over keyword count vectors. Weights are
  /// (1 + ln tf) * idf(term), with norms computed on the fly so the
  /// current corpus statistics always apply.
  double IdfCosine(const text::TermVector& a, const text::TermVector& b)
      const;

  /// Temporal affinity of two time intervals in [0, 1]: 1 when they
  /// overlap, linearly decaying to 0 as the gap grows to `tolerance`
  /// seconds (§2.3: stories only align when their evolution overlaps).
  static double TemporalAffinity(Timestamp a_begin, Timestamp a_end,
                                 Timestamp b_begin, Timestamp b_end,
                                 Timestamp tolerance);

  /// The document-frequency statistics backing IDF weighting (may be
  /// nullptr); IdfTable freezes them for one phase.
  const text::DocumentFrequency* document_frequency() const { return df_; }

  /// Number of pairwise similarity evaluations since construction: the
  /// pairs scored, including those identification scores 0.0 without a
  /// kernel call because they share no term. The counter is a relaxed
  /// atomic: scoring methods are const and run concurrently from the
  /// parallel ingestion/alignment paths, so a plain counter would be a
  /// data race. Relaxed ordering suffices — the count
  /// is only read from serial sections (benches, stats).
  ///
  /// Deliberately NOT `SP_GUARDED_BY` any capability (DESIGN.md §13):
  /// an atomic needs no lock, and guarding it by the engine's serial
  /// role would wrongly forbid exactly the concurrent scoring paths the
  /// atomic exists for. The same reasoning covers `ResetCounters`,
  /// which callers invoke only between phases.
  uint64_t num_comparisons() const {
    return num_comparisons_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    num_comparisons_.store(0, std::memory_order_relaxed);
  }
  /// Adds `n` evaluations made without the scoring methods above (one
  /// relaxed add per chunk of work): the counterpart graph's own kernel
  /// and identification's skipped disjoint-support pairs.
  void AddComparisons(uint64_t n) const {
    num_comparisons_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  SimilarityConfig config_;
  const text::DocumentFrequency* df_;
  mutable std::atomic<uint64_t> num_comparisons_{0};
};

/// A model's keyword weights with IDF frozen for one phase. DF does not
/// change during Align() or Refine(), so one table per phase replaces
/// IdfCosine's per-term `std::log` of the IDF with a lookup. Every value
/// comes from the same operations, in the same order, as IdfCosine's, so
/// scores built from it are bit-identical to the on-the-fly ones.
class IdfTable {
 public:
  explicit IdfTable(const SimilarityModel& model);

  /// IdfCosine's weight of one keyword: (1 + ln count) · idf(term), or
  /// the sublinear TF alone when the model has no DF.
  double Weight(text::TermId term, double count) const;

  /// IdfCosine's norm accumulator: Σ Weight² over `v` in term order.
  double SquaredNorm(const text::TermVector& v) const;

  /// IdfCosine(a, b), given both SquaredNorms.
  double Cosine(const text::TermVector& a, double a_norm,
                const text::TermVector& b, double b_norm) const;

 private:
  /// Null when the model has no DF.
  const text::DocumentFrequency* df_;
  /// idf(term) for every term `df_` has seen; later terms fall back to it.
  std::vector<double> idf_;
};

/// IdfCosine's final step: the cosine from a dot product and both squared
/// norms, 0 when either norm vanishes.
double CosineFromNorms(double dot, double a_norm, double b_norm);

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_SIMILARITY_H_
