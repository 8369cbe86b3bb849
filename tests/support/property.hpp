// Seeded-RNG property-test helpers.
//
// Every generator draws from the project's own deterministic `certquic::rng`
// so a failing case reproduces bit-for-bit from its (seed, iteration) pair.
// No generator touches the wall clock or global state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asn1/der.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace certquic::test {

/// Default iteration count for round-trip properties. Small enough to keep
/// tier-1 fast, large enough to hit every encoding band of each codec.
inline constexpr std::size_t kDefaultIterations = 256;

/// Seed used by all property suites unless a test overrides it. Fixed so a
/// red run is reproducible on any machine.
inline constexpr std::uint64_t kPropertySeed = 0xce27'9d1c'5eed'0001ULL;

/// Runs `fn(rng&, i)` for i in [0, iterations). Each iteration gets an
/// independent fork of the base generator, so properties can consume any
/// number of draws without disturbing later iterations.
template <typename Fn>
void for_each_iteration(Fn&& fn, std::size_t iterations = kDefaultIterations,
                        std::uint64_t seed = kPropertySeed) {
  rng base(seed);
  for (std::size_t i = 0; i < iterations; ++i) {
    rng it = base.fork(i);
    fn(it, i);
  }
}

/// QUIC varint value spread uniformly across the four encoding bands
/// (1/2/4/8 bytes) rather than uniformly over [0, 2^62), which would
/// almost never produce short encodings.
[[nodiscard]] std::uint64_t gen_varint_value(rng& r);

/// Random byte string with length uniform in [min_len, max_len].
[[nodiscard]] bytes gen_bytes(rng& r, std::size_t min_len, std::size_t max_len);

/// Byte string with LZ-friendly structure: runs, repeats of earlier slices
/// and literal stretches, so compressor back-references actually trigger.
[[nodiscard]] bytes gen_compressible_bytes(rng& r, std::size_t min_len,
                                           std::size_t max_len);

/// Valid OBJECT IDENTIFIER arc list (first arc in [0,2], second constrained
/// to [0,39] when the first is 0 or 1, as DER requires).
[[nodiscard]] asn1::oid_arcs gen_oid(rng& r, std::size_t max_extra_arcs = 8);

/// PrintableString-safe ASCII text of length in [min_len, max_len].
[[nodiscard]] std::string gen_printable(rng& r, std::size_t min_len,
                                        std::size_t max_len);

/// Signed 64-bit integer spread across magnitude bands (so 1-byte and
/// 8-byte DER INTEGER encodings both occur).
[[nodiscard]] std::int64_t gen_int64(rng& r);

}  // namespace certquic::test
