#include "src/codec/payload.h"

#include <algorithm>
#include <cmath>

namespace slacker::codec {

void FillCompressiblePayload(const storage::Record& record, double redundancy,
                             uint8_t* out, size_t logical_size) {
  const double clamped = std::clamp(redundancy, 0.0, 1.0);
  const size_t filler_bytes = std::min(
      logical_size,
      static_cast<size_t>(
          std::llround(clamped * static_cast<double>(logical_size))));
  const uint8_t filler = static_cast<uint8_t>(record.key * 0x9E3779B9u >> 24);
  std::fill(out, out + filler_bytes, filler);
  // The incompressible tail is the same xorshift64 stream as
  // storage::MaterializePayload, advanced past the filler prefix.
  uint64_t state = record.digest ^ record.key;
  for (size_t i = filler_bytes; i < logical_size; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    out[i] = static_cast<uint8_t>(state);
  }
}

std::vector<uint8_t> MaterializeCompressiblePayload(
    const storage::Record& record, size_t logical_size, double redundancy) {
  std::vector<uint8_t> out(logical_size);
  FillCompressiblePayload(record, redundancy, out.data(), logical_size);
  return out;
}

}  // namespace slacker::codec
