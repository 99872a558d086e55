// Bounds-checked big-endian byte readers/writers.
//
// These back the DNS wire codec (RFC 1035 uses network byte order
// throughout). Reads never run past the buffer: every accessor reports
// failure through the reader's sticky error state instead of throwing, so
// parsing a truncated or hostile message degrades to a clean parse error.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace curtain::util {

/// Appends integers/bytes in network byte order to an owned buffer.
class ByteWriter {
 public:
  void put_u8(uint8_t v);
  void put_u16(uint16_t v);
  void put_u32(uint32_t v);
  void put_bytes(std::span<const uint8_t> bytes);
  void put_string(std::string_view s);

  /// Overwrites a previously written u16 (e.g. to backpatch RDLENGTH).
  /// `offset` must address two bytes already written.
  void patch_u16(size_t offset, uint16_t v);

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Reads network-byte-order integers from a borrowed buffer.
///
/// After any out-of-bounds access `ok()` turns false and all subsequent
/// reads return zero values; callers check `ok()` once at the end of a
/// parse unit rather than after every field.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t get_u8();
  uint16_t get_u16();
  uint32_t get_u32();
  /// Copies `n` bytes out; returns an empty vector (and sets the error
  /// state) if fewer than `n` remain.
  std::vector<uint8_t> get_bytes(size_t n);
  std::string get_string(size_t n);
  /// Borrows `n` bytes as a view into the underlying buffer (no copy).
  /// Only valid while the buffer passed to the constructor is alive.
  std::string_view get_view(size_t n);

  /// Repositions the cursor (used for DNS compression pointers).
  /// Seeking past the end sets the error state.
  void seek(size_t offset);

  size_t offset() const { return offset_; }
  size_t remaining() const { return ok_ ? data_.size() - offset_ : 0; }
  bool ok() const { return ok_; }
  size_t size() const { return data_.size(); }

 private:
  bool require(size_t n);

  std::span<const uint8_t> data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

}  // namespace curtain::util
