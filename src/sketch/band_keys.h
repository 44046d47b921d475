#ifndef STORYPIVOT_SKETCH_BAND_KEYS_H_
#define STORYPIVOT_SKETCH_BAND_KEYS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "text/term_vector.h"

namespace storypivot {

/// Story-sketch LSH shape: 16 bands of 4 rows over a 64-slot MinHash
/// signature. Two term sets with Jaccard similarity s share at least one
/// band key with probability 1 - (1 - s^4)^16, a steep S-curve around
/// s ~= 0.5 that matches the alignment thresholds. This is the sketch of
/// §2.4 that keeps the cross-source story comparisons of §2.3 cheap.
inline constexpr size_t kLshBands = 16;
inline constexpr size_t kLshRowsPerBand = 4;

/// Writes the kLshBands band keys of the combined term sets of
/// `entities` and `keywords` (terms of positive weight; entities and
/// keywords are kept apart by a domain tag). Slot i of the underlying
/// signature is the minimum of the i-th seeded SplitMix64 hash over the
/// tagged terms, or UINT64_MAX for an empty set; band b's key folds its
/// 4 slots into SplitMix64(b + 1) with HashCombine. Equal term sets give
/// equal keys, and so do sets whose minima agree on a band's slots:
/// callers treat a shared key as a candidate and verify it by scoring.
void StoryBandKeys(const text::TermVector& entities,
                   const text::TermVector& keywords,
                   std::span<uint64_t, kLshBands> keys);

}  // namespace storypivot

#endif  // STORYPIVOT_SKETCH_BAND_KEYS_H_
