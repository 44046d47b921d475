#include "util/hash.h"

namespace storypivot {

namespace {

struct Crc32Table {
  uint32_t entries[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

const Crc32Table& TheCrc32Table() {
  static const Crc32Table& table = *new Crc32Table();
  return table;
}

}  // namespace

uint32_t ExtendCrc32(uint32_t crc, std::string_view data) {
  const Crc32Table& table = TheCrc32Table();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c = table.entries[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view data) { return ExtendCrc32(0, data); }

}  // namespace storypivot
