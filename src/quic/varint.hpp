// QUIC variable-length integers (RFC 9000 §16).
#pragma once

#include <cstdint>

#include "util/buffer.hpp"
#include "util/bytes.hpp"

namespace certquic::quic {

/// Largest value representable (2^62 - 1).
inline constexpr std::uint64_t kVarintMax = (1ULL << 62) - 1;

/// Throws codec_error for a value above kVarintMax.
[[noreturn]] void varint_overflow(std::uint64_t v);

/// Bytes needed to encode `v` (1, 2, 4 or 8). Throws codec_error above
/// kVarintMax.
[[nodiscard]] inline std::size_t varint_size(std::uint64_t v) {
  if (v < (1ULL << 6)) {
    return 1;
  }
  if (v < (1ULL << 14)) {
    return 2;
  }
  if (v < (1ULL << 30)) {
    return 4;
  }
  if (v > kVarintMax) {
    varint_overflow(v);
  }
  return 8;
}

/// Writes the minimal encoding of `v` at `at`, which must have room for
/// varint_size(v) bytes, and returns the byte after it.
inline std::uint8_t* put_varint(std::uint8_t* at, std::uint64_t v) {
  const std::size_t n = varint_size(v);
  // The two high bits of the first byte give the width: 0, 1, 2 or 3
  // for 1, 2, 4 or 8 bytes.
  const std::uint64_t prefix = n == 1 ? 0 : n == 2 ? 1 : n == 4 ? 2 : 3;
  const std::uint64_t word = v | (prefix << (8 * n - 2));
  for (std::size_t i = 0; i < n; ++i) {
    at[i] = static_cast<std::uint8_t>(word >> (8 * (n - 1 - i)));
  }
  return at + n;
}

/// Appends the minimal QUIC varint encoding of `v`.
inline void write_varint(buffer_writer& w, std::uint64_t v) {
  (void)put_varint(w.extend(varint_size(v)).data(), v);
}

/// Reads one varint; throws codec_error on truncation.
[[nodiscard]] inline std::uint64_t read_varint(buffer_reader& r) {
  switch (r.peek_u8() >> 6) {
    case 0:
      return r.u8();
    case 1: {
      // Inline: the width of most lengths and offsets in a handshake.
      const bytes_view v = r.raw(2);
      return (std::uint64_t{v[0] & 0x3fu} << 8) | v[1];
    }
    case 2:
      return r.u32() & 0x3fff'ffffULL;
    default:
      return r.u64() & 0x3fff'ffff'ffff'ffffULL;
  }
}

}  // namespace certquic::quic
