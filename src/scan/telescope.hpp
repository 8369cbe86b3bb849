// Network-telescope backscatter collector (§3.2/§4.3): owns a block of
// unused addresses; when attackers spoof sources from that block, the
// victims' inbound traffic — the servers' amplified responses — arrives
// here. The paper groups backscatter into sessions by (provider, source
// connection id); here each spoofed session owns exactly one sensor
// address, so grouping by the sensor a datagram landed on is that same
// per-session grouping — without parsing the datagram.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/simulator.hpp"

namespace certquic::scan {

/// One backscatter session: everything that arrived at one sensor.
struct backscatter_session {
  std::string provider;
  std::size_t bytes = 0;
  std::size_t datagrams = 0;
  net::time_point first_seen = 0;
  net::time_point last_seen = 0;

  [[nodiscard]] net::duration duration() const noexcept {
    return last_seen - first_seen;
  }
};

/// A passive telescope attached to a simulator.
class telescope {
 public:
  /// Claims sensors inside `base`/24, ports drawn sequentially.
  telescope(net::simulator& sim, net::ipv4 base);
  ~telescope();

  telescope(const telescope&) = delete;
  telescope& operator=(const telescope&) = delete;

  /// Allocates the next sensor address for an attacker to spoof.
  [[nodiscard]] net::endpoint_id allocate_sensor();

  /// Maps a /24 server prefix to a provider label for grouping.
  void map_prefix(net::ipv4 prefix, std::string provider);

  /// Everything that arrived at one sensor address — the session that
  /// spoofed it; an untouched sensor yields an empty session
  /// (datagrams == 0).
  [[nodiscard]] backscatter_session observed_at(
      const net::endpoint_id& sensor) const;

 private:
  /// Folds a datagram into the session of sensors_[slot].
  void on_datagram(std::size_t slot, const net::datagram& d);

  net::simulator& sim_;
  net::ipv4 base_;
  std::uint16_t next_port_ = 20000;
  std::uint8_t next_host_ = 1;
  /// Every allocated sensor with what arrived there, in allocation
  /// order.
  std::vector<std::pair<net::endpoint_id, backscatter_session>> sensors_;
  std::map<std::uint32_t, std::string> prefixes_;  // /24 -> provider
};

}  // namespace certquic::scan
