#include "src/common/checksum.h"

#include <array>

#include "src/common/bytes.h"

namespace slacker {
namespace {

// Slicing-by-8 tables: kCrc32cTables[0] is the classic byte table, and
// kCrc32cTables[k][b] is the CRC of byte b followed by k zero bytes, so
// eight lookups fold a whole 64-bit word into the running CRC.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  constexpr uint32_t kPoly = 0x82f63b78;  // Castagnoli, reflected.
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t len, uint32_t seed) {
  const Crc32cTables& t = kCrc32cTables;
  uint32_t crc = ~seed;
  for (; len >= 8; data += 8, len -= 8) {
    const uint64_t word = LoadLe64(data) ^ crc;
    crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
          t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
          t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
          t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const std::vector<uint8_t>& data, uint32_t seed) {
  return Crc32c(data.data(), data.size(), seed);
}

uint64_t Fnv1a64(const uint8_t* data, size_t len, uint64_t seed) {
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t HashCombine(uint64_t digest, uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = (value >> (i * 8)) & 0xff;
  return Fnv1a64(bytes, sizeof(bytes), digest);
}

}  // namespace slacker
