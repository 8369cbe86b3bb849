// Loads hand-built QUIC packets into a datagram builder, so that tests
// pad and encode them as an endpoint does.
#pragma once

#include <span>

#include "quic/packet.hpp"

namespace certquic::test {

/// Opens a copy of each of `packets` in `dg`, its frames added one by
/// one.
inline void load(quic::datagram_builder& dg,
                 std::span<const quic::packet> packets) {
  for (const quic::packet& p : packets) {
    quic::packet& q = dg.open(p.type);
    q.version = p.version;
    q.dcid = p.dcid;
    q.scid = p.scid;
    q.token = p.token;
    q.packet_number = p.packet_number;
    q.supported_versions = p.supported_versions;
    for (const quic::frame& f : p.frames) {
      dg.add(f);
    }
  }
}

}  // namespace certquic::test
