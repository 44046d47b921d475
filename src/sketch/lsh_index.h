#ifndef STORYPIVOT_SKETCH_LSH_INDEX_H_
#define STORYPIVOT_SKETCH_LSH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sketch/minhash.h"

namespace storypivot {

/// Banded locality-sensitive hashing index over MinHash signatures.
/// Signatures with Jaccard similarity s collide in at least one band with
/// probability 1 - (1 - s^rows)^bands; the default 16 bands x 4 rows gives
/// a steep S-curve around s ~= 0.5^(1/4) ~= 0.5, matching the engine's
/// alignment thresholds. Used to find candidate stories across sources
/// without comparing all pairs (§2.3: "one of the main challenges here is
/// combining stories across data sources efficiently").
class LshIndex {
 public:
  /// `bands * rows_per_band` must not exceed the signature size used with
  /// this index.
  LshIndex(size_t bands = 16, size_t rows_per_band = 4);

  LshIndex(const LshIndex&) = delete;
  LshIndex& operator=(const LshIndex&) = delete;
  LshIndex(LshIndex&&) = default;
  LshIndex& operator=(LshIndex&&) = default;

  /// Inserts an item. Each id may be inserted at most once.
  void Insert(uint64_t id, const MinHashSignature& signature);

  /// Distinct ids sharing at least one band bucket with `signature`
  /// (possibly including ids whose true similarity is low — callers
  /// verify). The probe itself is included if it was inserted.
  std::vector<uint64_t> Query(const MinHashSignature& signature) const;

 private:
  std::vector<uint64_t> BandKeys(const MinHashSignature& signature) const;

  size_t bands_;
  size_t rows_per_band_;
  /// Per band: bucket key -> member ids.
  std::vector<std::unordered_map<uint64_t, std::vector<uint64_t>>> buckets_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_SKETCH_LSH_INDEX_H_
