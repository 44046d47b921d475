#include "sketch/lsh_index.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace storypivot {

LshIndex::LshIndex(size_t bands, size_t rows_per_band)
    : bands_(bands), rows_per_band_(rows_per_band), buckets_(bands) {
  SP_CHECK(bands > 0);
  SP_CHECK(rows_per_band > 0);
}

std::vector<uint64_t> LshIndex::BandKeys(
    const MinHashSignature& signature) const {
  SP_CHECK(signature.num_hashes() >= bands_ * rows_per_band_);
  std::vector<uint64_t> keys(bands_);
  const std::vector<uint64_t>& slots = signature.slots();
  for (size_t b = 0; b < bands_; ++b) {
    uint64_t key = SplitMix64(b + 1);
    for (size_t r = 0; r < rows_per_band_; ++r) {
      key = HashCombine(key, slots[b * rows_per_band_ + r]);
    }
    keys[b] = key;
  }
  return keys;
}

void LshIndex::Insert(uint64_t id, const MinHashSignature& signature) {
  const std::vector<uint64_t> keys = BandKeys(signature);
  for (size_t b = 0; b < bands_; ++b) {
    buckets_[b][keys[b]].push_back(id);
  }
}

std::vector<uint64_t> LshIndex::Query(
    const MinHashSignature& signature) const {
  std::vector<uint64_t> keys = BandKeys(signature);
  std::vector<uint64_t> out;
  for (size_t b = 0; b < bands_; ++b) {
    auto bucket_it = buckets_[b].find(keys[b]);
    if (bucket_it == buckets_[b].end()) continue;
    out.insert(out.end(), bucket_it->second.begin(),
               bucket_it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace storypivot
