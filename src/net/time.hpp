// Virtual time for the deterministic network simulation.
#pragma once

#include <cstdint>

namespace certquic::net {

/// Microseconds since simulation start.
using time_point = std::uint64_t;
/// Microsecond duration.
using duration = std::uint64_t;

inline constexpr duration milliseconds(std::uint64_t n) { return n * 1000; }
inline constexpr duration seconds(std::uint64_t n) { return n * 1000000; }

/// Renders a duration as fractional seconds for reports.
inline double to_seconds(duration d) {
  return static_cast<double>(d) / 1e6;
}

}  // namespace certquic::net
