#include "sketch/band_keys.h"

#include <array>
#include <limits>

#include "util/hash.h"

namespace storypivot {
namespace {

constexpr size_t kSlots = kLshBands * kLshRowsPerBand;

/// The seed mix of slot i's hash function, SplitMix64(i * C + 1): slot i
/// hashes a tagged term x as SplitMix64(x ^ kSlotSeeds[i]). One table
/// instead of a recomputation per term and slot.
constexpr std::array<uint64_t, kSlots> kSlotSeeds = [] {
  std::array<uint64_t, kSlots> seeds{};
  for (size_t i = 0; i < kSlots; ++i) {
    seeds[i] = SplitMix64(uint64_t{i} * 0xff51afd7ed558ccdULL + 1);
  }
  return seeds;
}();

/// Domain tags keep entity and keyword ids apart inside one signature.
constexpr uint64_t kEntityTag = uint64_t{1} << 40;
constexpr uint64_t kKeywordTag = uint64_t{2} << 40;

void AddTerms(const text::TermVector& terms, uint64_t tag,
              std::array<uint64_t, kSlots>* slots) {
  for (const auto& [term, weight] : terms.entries()) {
    if (!(weight > 0.0)) continue;
    const uint64_t element = tag | term;
    for (size_t i = 0; i < kSlots; ++i) {
      const uint64_t h = SplitMix64(element ^ kSlotSeeds[i]);
      if (h < (*slots)[i]) (*slots)[i] = h;
    }
  }
}

}  // namespace

void StoryBandKeys(const text::TermVector& entities,
                   const text::TermVector& keywords,
                   std::span<uint64_t, kLshBands> keys) {
  std::array<uint64_t, kSlots> slots;
  slots.fill(std::numeric_limits<uint64_t>::max());
  AddTerms(entities, kEntityTag, &slots);
  AddTerms(keywords, kKeywordTag, &slots);
  for (size_t b = 0; b < kLshBands; ++b) {
    uint64_t key = SplitMix64(b + 1);
    for (size_t r = 0; r < kLshRowsPerBand; ++r) {
      key = HashCombine(key, slots[b * kLshRowsPerBand + r]);
    }
    keys[b] = key;
  }
}

}  // namespace storypivot
