// IPv4-style addressing for the simulated Internet.
#pragma once

#include <cstdint>
#include <string>

namespace certquic::net {

/// IPv4 address (host byte order internally).
struct ipv4 {
  std::uint32_t value = 0;

  /// Builds from dotted octets, e.g. ipv4::of(157, 240, 229, 35).
  [[nodiscard]] static constexpr ipv4 of(std::uint8_t a, std::uint8_t b,
                                         std::uint8_t c, std::uint8_t d) {
    return ipv4{(static_cast<std::uint32_t>(a) << 24) |
                (static_cast<std::uint32_t>(b) << 16) |
                (static_cast<std::uint32_t>(c) << 8) | d};
  }

  /// Parses "a.b.c.d"; throws codec_error on malformed input.
  [[nodiscard]] static ipv4 parse(const std::string& dotted);

  /// Last octet — the paper scans Meta /24s by host octet (Fig. 11).
  [[nodiscard]] constexpr std::uint8_t host_octet() const {
    return static_cast<std::uint8_t>(value & 0xff);
  }

  /// The /24 prefix (lower octet zeroed).
  [[nodiscard]] constexpr ipv4 slash24() const {
    return ipv4{value & 0xffffff00u};
  }

  [[nodiscard]] std::string to_string() const;

  constexpr auto operator<=>(const ipv4&) const = default;
};

/// UDP endpoint: address + port.
struct endpoint_id {
  ipv4 ip;
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  constexpr auto operator<=>(const endpoint_id&) const = default;
};

}  // namespace certquic::net
