#include "scan/telescope.hpp"

namespace certquic::scan {

telescope::telescope(net::simulator& sim, net::ipv4 base)
    : sim_(sim), base_(base.slash24()) {}

telescope::~telescope() {
  for (const auto& entry : sensors_) {
    sim_.detach(entry.first);
  }
}

net::endpoint_id telescope::allocate_sensor() {
  if (next_host_ == 0xff) {
    next_host_ = 1;
    ++next_port_;
  }
  const net::endpoint_id sensor{
      net::ipv4{base_.value | next_host_++}, next_port_};
  const std::size_t slot = sensors_.size();
  sensors_.emplace_back(sensor, backscatter_session{});
  sim_.attach(sensor, [this, slot](const net::datagram& d) {
    on_datagram(slot, d);
  });
  return sensor;
}

void telescope::map_prefix(net::ipv4 prefix, std::string provider) {
  prefixes_[prefix.slash24().value] = std::move(provider);
}

void telescope::on_datagram(std::size_t slot, const net::datagram& d) {
  // The sensor the backscatter landed on identifies the spoofed session
  // that elicited it.
  backscatter_session& session = sensors_[slot].second;
  if (session.datagrams == 0) {
    const auto it = prefixes_.find(d.src.ip.slash24().value);
    session.provider = it == prefixes_.end() ? "unknown" : it->second;
    session.first_seen = sim_.now();
  }
  session.last_seen = sim_.now();
  session.bytes += d.payload.size();
  ++session.datagrams;
}

backscatter_session telescope::observed_at(
    const net::endpoint_id& sensor) const {
  for (const auto& [address, session] : sensors_) {
    if (address == sensor) {
      return session;
    }
  }
  return {};
}

}  // namespace certquic::scan
