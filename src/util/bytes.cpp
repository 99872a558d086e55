#include "util/bytes.h"

namespace curtain::util {

void ByteWriter::put_u8(uint8_t v) { buf_.push_back(v); }

void ByteWriter::put_u16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v >> 8));
  buf_.push_back(static_cast<uint8_t>(v & 0xff));
}

void ByteWriter::put_u32(uint32_t v) {
  buf_.push_back(static_cast<uint8_t>(v >> 24));
  buf_.push_back(static_cast<uint8_t>((v >> 16) & 0xff));
  buf_.push_back(static_cast<uint8_t>((v >> 8) & 0xff));
  buf_.push_back(static_cast<uint8_t>(v & 0xff));
}

void ByteWriter::put_bytes(std::span<const uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::put_string(std::string_view s) {
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::patch_u16(size_t offset, uint16_t v) {
  if (offset + 2 > buf_.size()) return;  // programming error; keep buffer valid
  buf_[offset] = static_cast<uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<uint8_t>(v & 0xff);
}

bool ByteReader::require(size_t n) {
  if (!ok_ || offset_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::get_u8() {
  if (!require(1)) return 0;
  return data_[offset_++];
}

uint16_t ByteReader::get_u16() {
  if (!require(2)) return 0;
  const uint16_t v = static_cast<uint16_t>(data_[offset_] << 8 | data_[offset_ + 1]);
  offset_ += 2;
  return v;
}

uint32_t ByteReader::get_u32() {
  if (!require(4)) return 0;
  const uint32_t v = static_cast<uint32_t>(data_[offset_]) << 24 |
                     static_cast<uint32_t>(data_[offset_ + 1]) << 16 |
                     static_cast<uint32_t>(data_[offset_ + 2]) << 8 |
                     static_cast<uint32_t>(data_[offset_ + 3]);
  offset_ += 4;
  return v;
}

std::vector<uint8_t> ByteReader::get_bytes(size_t n) {
  if (!require(n)) return {};
  std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(offset_),
                           data_.begin() + static_cast<ptrdiff_t>(offset_ + n));
  offset_ += n;
  return out;
}

std::string ByteReader::get_string(size_t n) {
  if (!require(n)) return {};
  std::string out(reinterpret_cast<const char*>(data_.data()) + offset_, n);
  offset_ += n;
  return out;
}

std::string_view ByteReader::get_view(size_t n) {
  if (!require(n)) return {};
  std::string_view out(reinterpret_cast<const char*>(data_.data()) + offset_,
                       n);
  offset_ += n;
  return out;
}

void ByteReader::seek(size_t offset) {
  if (offset > data_.size()) {
    ok_ = false;
    return;
  }
  offset_ = offset;
}

}  // namespace curtain::util
