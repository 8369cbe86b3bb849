// DNS resolution simulation reproducing the §3.1 funnel.
//
// The paper resolves 1M Tranco names through 8.8.8.8: 976k resolve,
// 13k SERVFAIL, 9k NXDOMAIN, ~2k time out or are REFUSED, and 866k
// return an A record. The per-name outcome here is deterministic given
// the resolver seed and the domain id.
#pragma once

#include <cstdint>
#include <string>

#include "net/address.hpp"
#include "util/rng.hpp"

namespace certquic::dns {

/// Resolution outcome classes observed in the paper's scan.
enum class outcome : std::uint8_t {
  a_record,     // usable IPv4 answer
  no_a_record,  // resolved, but no A record (CNAME dead ends, AAAA-only)
  servfail,
  nxdomain,
  timeout,
  refused,
};

[[nodiscard]] std::string to_string(outcome o);

/// Result of one lookup.
struct resolution {
  outcome result = outcome::timeout;
  net::ipv4 address;  // valid only for a_record
};

/// Outcome probabilities; defaults match §3.1 (fractions of 1M).
struct funnel_rates {
  double a_record = 0.866;
  double no_a_record = 0.110;
  double servfail = 0.013;
  double nxdomain = 0.009;
  double timeout = 0.0015;
  double refused = 0.0005;
};

/// Deterministic resolver simulation.
class resolver {
 public:
  explicit resolver(std::uint64_t seed = 0xd5d5, funnel_rates rates = {});

  /// Resolves a domain by id; the same id always yields the same
  /// outcome and address.
  [[nodiscard]] resolution resolve(std::uint64_t domain_id) const;

  [[nodiscard]] const funnel_rates& rates() const noexcept { return rates_; }

 private:
  std::uint64_t seed_;
  funnel_rates rates_;
};

}  // namespace certquic::dns
