// Order-sensitive FNV-1a fold over a probe-record stream, shared by
// every pipeline that needs to prove two record streams were identical
// *including order* (the longitudinal service's per-epoch checkpoints,
// the spill-vs-in-memory comparison of fig_outofcore_rss and the
// EnginePins study digests). Equal digests over the
// same field set mean the streams matched record for record; aggregate
// equality alone cannot distinguish a reordering.
#pragma once

#include <cstdint>

#include "scan/reach.hpp"

namespace certquic::core {

/// FNV-1a offset basis — the digest's initial value.
inline constexpr std::uint64_t kStreamDigestSeed = 0xcbf2'9ce4'8422'2325ULL;

/// Folds one 64-bit value into the digest byte by byte.
inline void digest_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xff;
    h *= 0x0000'0100'0000'01b3ULL;
  }
}

/// Folds one record's identifying and observation fields. The field
/// set (and its order) is the digest's wire format: the epoch store's
/// MANIFEST persists these values and the pinned test and benchmark
/// digests fold them, so changing it invalidates every stored digest.
inline void digest_record(std::uint64_t& h, std::uint32_t service_index,
                          std::uint32_t variant_index,
                          const scan::probe_result& result) noexcept {
  const quic::observation& o = result.obs;
  digest_mix(h, service_index);
  digest_mix(h, variant_index);
  digest_mix(h, static_cast<std::uint64_t>(result.cls));
  digest_mix(h, o.handshake_complete ? 1 : 0);
  digest_mix(h, o.bytes_sent_total);
  digest_mix(h, o.bytes_received_total);
  digest_mix(h, o.bytes_received_first_burst);
  digest_mix(h, o.tls_bytes_received);
  digest_mix(h, o.certificate_msg_size);
  digest_mix(h, o.complete_time);
  digest_mix(h, o.certificate_message.size());
}

}  // namespace certquic::core
