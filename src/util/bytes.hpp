// Basic byte-sequence aliases and helpers shared by every wire-format module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace certquic {

/// Owned, growable byte sequence. All wire encodings in this project
/// (DER, TLS handshake messages, QUIC packets, UDP datagrams) are built
/// into and parsed from this type.
using bytes = std::vector<std::uint8_t>;

/// Non-owning read-only view over a byte sequence.
using bytes_view = std::span<const std::uint8_t>;

/// Appends the contents of `src` to `dst`.
inline void append(bytes& dst, bytes_view src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Appends the raw characters of `src` (no terminator) to `dst`.
inline void append(bytes& dst, std::string_view src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Constant-size zero padding appended to `dst`.
inline void append_zeros(bytes& dst, std::size_t n) {
  dst.insert(dst.end(), n, std::uint8_t{0});
}

}  // namespace certquic
