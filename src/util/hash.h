#ifndef STORYPIVOT_UTIL_HASH_H_
#define STORYPIVOT_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace storypivot {

/// 64-bit FNV-1a hash of a byte string. Stable across platforms and runs;
/// used for vocabulary interning and sketch seeding.
uint64_t Fnv1a64(std::string_view data);

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// Useful for deriving independent hash functions from an index. Inline
/// and constexpr, so per-element loops (the story band keys of
/// sketch/band_keys) pay no call and seed tables fold at compile time.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two 64-bit hashes (boost::hash_combine style, 64-bit constants).
constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib/gzip variant) of a
/// byte string. Used to frame write-ahead-log records: unlike the hashes
/// above it is a standard, externally-checkable checksum, so logs can be
/// validated by other tooling.
uint32_t Crc32(std::string_view data);

/// Extends a running CRC-32 with more bytes. `Crc32(ab)` ==
/// `ExtendCrc32(Crc32(a), b)`.
uint32_t ExtendCrc32(uint32_t crc, std::string_view data);

}  // namespace storypivot

#endif  // STORYPIVOT_UTIL_HASH_H_
