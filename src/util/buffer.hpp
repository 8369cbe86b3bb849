// Bounds-checked big-endian byte readers and writers.
//
// Every wire format in this project (DER, TLS 1.3 handshake framing and
// QUIC v1 packets) is big-endian, so a single pair of primitives serves
// all encoders/decoders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace certquic {

/// Appends big-endian integers and raw bytes to an owned buffer.
///
/// The writer never fails: it grows the underlying vector as needed.
/// Length-prefix patterns (write a placeholder, fill it in later) are
/// supported through `reserve_u16`/`patch_u16` style pairs used by the
/// TLS message encoders.
class buffer_writer {
 public:
  buffer_writer() = default;
  /// Starts with room for `capacity` bytes, so an encoder that knows its
  /// output size up front never regrows.
  explicit buffer_writer(std::size_t capacity) { buf_.reserve(capacity); }
  /// Writes into `storage`, emptied first but keeping its capacity: a
  /// caller that hands the same buffer back for every message stops
  /// allocating once it has grown to the largest one.
  explicit buffer_writer(bytes&& storage) : buf_(std::move(storage)) {
    buf_.clear();
  }

  /// Writes an 8-bit value.
  void u8(std::uint8_t v) { buf_.push_back(v); }
  /// Writes a 16-bit value, big-endian.
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  /// Writes a 24-bit value, big-endian. Throws codec_error if v >= 2^24.
  void u24(std::uint32_t v);
  /// Writes a 32-bit value, big-endian.
  void u32(std::uint32_t v);
  /// Appends raw bytes.
  void raw(bytes_view v) { append(buf_, v); }
  /// Appends raw characters of a string (no terminator, no length prefix).
  void raw(std::string_view v);
  /// Appends `n` zero bytes and returns a writable view of them, for
  /// fields filled in place (e.g. by rng::fill). The view is valid until
  /// the next write.
  [[nodiscard]] std::span<std::uint8_t> extend(std::size_t n) {
    const std::size_t offset = buf_.size();
    append_zeros(buf_, n);
    return std::span<std::uint8_t>{buf_}.subspan(offset);
  }

  /// Reserves a 16-bit slot and returns its offset for later patching.
  [[nodiscard]] std::size_t reserve_u16();
  /// Reserves a 24-bit slot and returns its offset for later patching.
  [[nodiscard]] std::size_t reserve_u24();
  /// Patches a previously reserved 16-bit slot with `v`.
  void patch_u16(std::size_t offset, std::uint16_t v);
  /// Patches a previously reserved 24-bit slot. Throws if v >= 2^24.
  void patch_u24(std::size_t offset, std::uint32_t v);

  /// Number of bytes written so far.
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Read-only view of the bytes written so far.
  [[nodiscard]] bytes_view view() const noexcept { return buf_; }

  /// Moves the accumulated bytes out of the writer.
  [[nodiscard]] bytes take() && { return std::move(buf_); }

  /// Direct access for in-place appends by callers that already have bytes.
  [[nodiscard]] bytes& storage() noexcept { return buf_; }

 private:
  bytes buf_;
};

/// Reads big-endian integers and raw spans from a byte view.
///
/// All reads are bounds-checked and throw `codec_error` on truncation;
/// a reader never reads past the end of its view.
class buffer_reader {
 public:
  explicit buffer_reader(bytes_view data) noexcept : data_(data) {}

  /// Reads an 8-bit value.
  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }
  /// Reads a 16-bit big-endian value.
  [[nodiscard]] std::uint16_t u16();
  /// Reads a 24-bit big-endian value.
  [[nodiscard]] std::uint32_t u24();
  /// Reads a 32-bit big-endian value.
  [[nodiscard]] std::uint32_t u32();
  /// Reads a 64-bit big-endian value.
  [[nodiscard]] std::uint64_t u64();
  /// Reads `n` raw bytes as a sub-view (no copy).
  [[nodiscard]] bytes_view raw(std::size_t n) {
    require(n);
    const bytes_view v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  /// Peeks at the next byte without consuming it.
  [[nodiscard]] std::uint8_t peek_u8() const {
    require(1);
    return data_[pos_];
  }

  /// Skips `n` bytes. Throws codec_error if fewer remain.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// True when every byte has been consumed.
  [[nodiscard]] bool empty() const noexcept { return remaining() == 0; }
  /// Absolute read position from the start of the view.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  // The check is inline so the hot readers above stay call-free; the
  // throw (and its message formatting) stays out of line.
  void require(std::size_t n) const {
    if (remaining() < n) {
      underrun(n);
    }
  }
  [[noreturn]] void underrun(std::size_t n) const;

  bytes_view data_;
  std::size_t pos_ = 0;
};

}  // namespace certquic
