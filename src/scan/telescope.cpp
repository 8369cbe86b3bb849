#include "scan/telescope.hpp"

namespace certquic::scan {

telescope::telescope(net::simulator& sim, net::ipv4 base)
    : sim_(sim), base_(base.slash24()) {}

telescope::~telescope() {
  for (const auto& sensor : sensors_) {
    sim_.detach(sensor);
  }
}

net::endpoint_id telescope::allocate_sensor() {
  if (next_host_ == 0xff) {
    next_host_ = 1;
    ++next_port_;
  }
  const net::endpoint_id sensor{
      net::ipv4{base_.value | next_host_++}, next_port_};
  sensors_.push_back(sensor);
  sim_.attach(sensor, [this](const net::datagram& d) { on_datagram(d); });
  return sensor;
}

void telescope::map_prefix(net::ipv4 prefix, std::string provider) {
  prefixes_[prefix.slash24().value] = std::move(provider);
}

void telescope::on_datagram(const net::datagram& d) {
  // d.dst is the sensor the backscatter landed on, which identifies the
  // spoofed session that elicited it.
  backscatter_session& session = by_sensor_[d.dst];
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
  const auto it = by_sensor_.find(sensor);
  return it == by_sensor_.end() ? backscatter_session{} : it->second;
}

}  // namespace certquic::scan
