#include "src/codec/lz.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/invariant.h"

namespace slacker::codec {
namespace {

constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 131;  // kMinMatch + 127.
constexpr size_t kMaxLiteralRun = 128;
/// Empty hash-table slot. Positions are stored as 32 bits, which halves
/// the table (128 KiB) against 64-bit positions.
constexpr uint32_t kNoPosition = UINT32_MAX;

/// Fibonacci hash of a 4-byte little-endian prefix; determinism needs
/// only that this is a pure function of the bytes.
uint32_t HashPrefix(uint32_t prefix) {
  return (prefix * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of `a` and `b`, starting from `length`
/// already-equal bytes and stopping at `limit`. Compares 8 bytes per
/// step; the first differing byte of a word is its lowest set byte of
/// a ^ b (little-endian), and the last `limit % 8` bytes go one by one.
size_t ExtendMatch(const uint8_t* a, const uint8_t* b, size_t length,
                   size_t limit) {
  while (length + 8 <= limit) {
    const uint64_t diff = LoadLe64(a + length) ^ LoadLe64(b + length);
    if (diff != 0) return length + std::countr_zero(diff) / 8;
    length += 8;
  }
  while (length < limit && a[length] == b[length]) ++length;
  return length;
}

void PutVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

bool GetVarint(const std::vector<uint8_t>& in, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < in.size() && shift < 64) {
    const uint8_t byte = in[(*pos)++];
    // The 10th byte holds only bit 63; anything above it would be lost.
    if (shift == 63 && (byte & 0x7e) != 0) return false;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

void FlushLiterals(const std::vector<uint8_t>& input, size_t from, size_t to,
                   std::vector<uint8_t>* out) {
  while (from < to) {
    const size_t run = std::min(kMaxLiteralRun, to - from);
    out->push_back(static_cast<uint8_t>(run - 1));
    out->insert(out->end(), input.begin() + static_cast<ptrdiff_t>(from),
                input.begin() + static_cast<ptrdiff_t>(from + run));
    from += run;
  }
}

}  // namespace

void LzCompress(const std::vector<uint8_t>& input, std::vector<uint8_t>* out) {
  out->clear();
  const size_t n = input.size();
  if (n == 0) return;
  SLACKER_CHECK(n < kNoPosition, "LzCompress input too large");
  // Room for an all-literal stream, the worst case in lz.h, so the
  // output is not reallocated while it is written.
  out->reserve(n + (n + kMaxLiteralRun - 1) / kMaxLiteralRun);

  const uint8_t* const src = input.data();
  // One table per thread, reset on every call: a migration compresses
  // thousands of chunks, and a fresh table per chunk would be handed
  // back to the kernel and faulted in again each time.
  thread_local std::vector<uint32_t> table_storage;
  table_storage.assign(kHashSize, kNoPosition);
  uint32_t* const table = table_storage.data();
  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    const uint32_t prefix = LoadLe32(src + i);
    const uint32_t h = HashPrefix(prefix);
    const uint32_t candidate = table[h];
    table[h] = static_cast<uint32_t>(i);
    // Table entries are earlier positions, so candidate < i.
    if (candidate != kNoPosition && LoadLe32(src + candidate) == prefix) {
      const size_t length = ExtendMatch(src + candidate, src + i, kMinMatch,
                                        std::min(kMaxMatch, n - i));
      FlushLiterals(input, literal_start, i, out);
      out->push_back(static_cast<uint8_t>(0x80 | (length - kMinMatch)));
      PutVarint(out, i - candidate);
      i += length;
      literal_start = i;
    } else {
      ++i;
    }
  }
  FlushLiterals(input, literal_start, n, out);
}

std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> out;
  LzCompress(input, &out);
  return out;
}

Status LzDecompress(const std::vector<uint8_t>& compressed,
                    size_t expected_size, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(expected_size);
  size_t pos = 0;
  while (pos < compressed.size()) {
    const uint8_t op = compressed[pos++];
    if (op < 0x80) {
      const size_t run = static_cast<size_t>(op) + 1;
      if (pos + run > compressed.size()) {
        return Status::Corruption("lz literal run overruns input");
      }
      if (out->size() + run > expected_size) {
        return Status::Corruption("lz output exceeds expected size");
      }
      out->insert(out->end(), compressed.begin() + static_cast<ptrdiff_t>(pos),
                  compressed.begin() + static_cast<ptrdiff_t>(pos + run));
      pos += run;
    } else {
      uint64_t distance = 0;
      if (!GetVarint(compressed, &pos, &distance)) {
        return Status::Corruption("lz match distance truncated or overlong");
      }
      const size_t length = static_cast<size_t>(op & 0x7F) + kMinMatch;
      if (distance == 0 || distance > out->size()) {
        return Status::Corruption("lz match distance out of range");
      }
      if (out->size() + length > expected_size) {
        return Status::Corruption("lz output exceeds expected size");
      }
      // Byte-at-a-time: matches may overlap their own output (RLE).
      size_t src = out->size() - static_cast<size_t>(distance);
      for (size_t k = 0; k < length; ++k) {
        out->push_back((*out)[src + k]);
      }
    }
  }
  if (out->size() != expected_size) {
    return Status::Corruption("lz output shorter than expected size");
  }
  return Status::Ok();
}

}  // namespace slacker::codec
