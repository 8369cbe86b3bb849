// QScanner-equivalent (§3.2): fetches the TLS certificate chain over
// QUIC and parses the delivered DER certificates.
#pragma once

#include <string>
#include <vector>

#include "internet/model.hpp"
#include "scan/reach.hpp"

namespace certquic::scan {

/// Summary of one certificate delivered over QUIC.
struct fetched_certificate {
  std::string serial_hex;
};

/// Result of one QUIC certificate fetch.
struct qscan_result {
  bool ok = false;
  std::vector<fetched_certificate> certificates;  // leaf first
  std::size_t chain_wire_size = 0;                // sum of DER sizes
};

/// Certificate scanner over QUIC.
class qscanner {
 public:
  explicit qscanner(const internet::model& m) : reach_(m) {}

  /// Fetches and parses the chain served over QUIC.
  [[nodiscard]] qscan_result fetch(const internet::service_record& rec) const;

  /// Parses a captured Certificate message out of a finished probe
  /// observation (capture_certificate mode). Lets engine-driven scans
  /// reuse the probe result instead of re-running the handshake.
  [[nodiscard]] static qscan_result parse(const quic::observation& obs);

  /// Compares the leaf served over QUIC against the one served over
  /// HTTPS (the §3.2 sanitization: 96.7% identical).
  [[nodiscard]] bool leaf_matches_https(const internet::model& m,
                                        const internet::service_record& rec,
                                        const qscan_result& fetched) const;

 private:
  reach reach_;
};

}  // namespace certquic::scan
