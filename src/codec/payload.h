#ifndef SLACKER_CODEC_PAYLOAD_H_
#define SLACKER_CODEC_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/storage/record.h"

namespace slacker::codec {

/// Expands a record into `logical_size` deterministic bytes with a
/// controllable compressible fraction: the first
/// round(redundancy * logical_size) bytes are a constant filler byte
/// derived from the key (LZ folds them into a handful of matches), and
/// the remainder is the same incompressible xorshift64 stream
/// storage::MaterializePayload produces. redundancy = 0 degenerates to
/// pure noise; the achievable LZ ratio is ~1 / (1 - redundancy).
///
/// Source and target call this with identical (record, size,
/// redundancy) inputs, so a payload CRC computed on one side is
/// verifiable on the other without shipping the bytes.
std::vector<uint8_t> MaterializeCompressiblePayload(
    const storage::Record& record, size_t logical_size, double redundancy);

/// MaterializeCompressiblePayload written into `out[0, logical_size)`
/// in place, for callers that lay many rows out in one buffer.
void FillCompressiblePayload(const storage::Record& record, double redundancy,
                             uint8_t* out, size_t logical_size);

}  // namespace slacker::codec

#endif  // SLACKER_CODEC_PAYLOAD_H_
