#ifndef SLACKER_COMMON_BYTES_H_
#define SLACKER_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace slacker {

/// Little-endian loads from possibly unaligned memory: one machine
/// load on little-endian hosts, plus a byte swap on big-endian ones.
/// ByteReader and the word-at-a-time CRC32C and LZ kernels read
/// through these.
inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Append-only binary encoder: little-endian fixed ints, LEB128
/// varints, and length-prefixed strings. The wal and net modules build
/// their record/message codecs on these primitives (the stand-in for
/// the paper's protocol buffers).
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  void PutVarint64(uint64_t v);
  void PutDouble(double v);
  void PutString(const std::string& s);
  void PutBytes(const uint8_t* data, size_t len);

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Matching decoder. All getters return Status so truncated or corrupt
/// input surfaces as kCorruption instead of UB.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out);
  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint64(uint64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string* out);
  Status GetBytes(uint8_t* out, size_t len);

  /// Reads the next byte without consuming it. Lets a decoder dispatch
  /// on an extension magic byte before handing the reader to the
  /// extension's own DecodeFrom.
  Status PeekU8(uint8_t* out) const;

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace slacker

#endif  // SLACKER_COMMON_BYTES_H_
