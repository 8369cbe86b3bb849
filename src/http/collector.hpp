// HTTPS certificate collection (§3.1): port checks, redirect following
// (HTTP 3xx and meta http-equiv), TLS-over-TCP certificate fetch.
//
// TCP itself has no amplification limit, so no byte-level simulation is
// needed here; what matters for the study is which names end up serving
// which chains, including everyone reached through redirects.
#pragma once

#include "internet/model.hpp"

namespace certquic::http {

/// Aggregate funnel counters matching §3.1.
struct collection_stats {
  std::size_t names_total = 0;
  std::size_t names_with_a_record = 0;
  std::size_t http_reachable = 0;       // port 80
  std::size_t https_reachable = 0;      // port 443 with TLS
  std::size_t redirects_followed = 0;
  std::size_t names_covered = 0;        // incl. redirect targets
  std::size_t unique_certificates = 0;  // distinct leaf serials
  std::size_t quic_capable = 0;
};

/// Walks the population like the paper's libcurl/libxml2 pipeline.
class collector {
 public:
  explicit collector(const internet::model& m) : model_(m) {}

  /// Follows at most this many redirect hops per name.
  static constexpr std::size_t kMaxRedirects = 10;

  /// Collects certificates for every name. A record reached more than
  /// once (directly and through redirects) counts once.
  [[nodiscard]] collection_stats collect_all() const;

 private:
  const internet::model& model_;
};

}  // namespace certquic::http
