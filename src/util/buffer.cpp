#include "util/buffer.hpp"

namespace certquic {

void buffer_writer::u24(std::uint32_t v) {
  if (v >= (1u << 24)) {
    throw codec_error("u24 overflow: " + std::to_string(v));
  }
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void buffer_writer::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void buffer_writer::raw(std::string_view v) { append(buf_, v); }

std::size_t buffer_writer::reserve_u16() {
  const std::size_t offset = buf_.size();
  buf_.insert(buf_.end(), 2, std::uint8_t{0});
  return offset;
}

std::size_t buffer_writer::reserve_u24() {
  const std::size_t offset = buf_.size();
  buf_.insert(buf_.end(), 3, std::uint8_t{0});
  return offset;
}

void buffer_writer::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) {
    throw codec_error("patch_u16 out of range");
  }
  buf_[offset] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<std::uint8_t>(v);
}

void buffer_writer::patch_u24(std::size_t offset, std::uint32_t v) {
  if (v >= (1u << 24)) {
    throw codec_error("patch_u24 overflow: " + std::to_string(v));
  }
  if (offset + 3 > buf_.size()) {
    throw codec_error("patch_u24 out of range");
  }
  buf_[offset] = static_cast<std::uint8_t>(v >> 16);
  buf_[offset + 1] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 2] = static_cast<std::uint8_t>(v);
}

void buffer_reader::underrun(std::size_t n) const {
  throw codec_error("buffer underrun: need " + std::to_string(n) +
                    " bytes, have " + std::to_string(remaining()));
}

std::uint16_t buffer_reader::u16() {
  require(2);
  const auto v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t buffer_reader::u24() {
  require(3);
  const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 16) |
                          (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                          data_[pos_ + 2];
  pos_ += 3;
  return v;
}

std::uint32_t buffer_reader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 4;
  return v;
}

std::uint64_t buffer_reader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 8;
  return v;
}

}  // namespace certquic
