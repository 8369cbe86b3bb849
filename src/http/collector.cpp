#include "http/collector.hpp"

#include <string>
#include <unordered_set>

#include "util/hex.hpp"

namespace certquic::http {

collection_stats collector::collect_all() const {
  collection_stats stats;
  const auto& records = model_.records();
  stats.names_total = records.size();

  std::unordered_set<std::size_t> visited_tls;  // record indices seen
  std::unordered_set<std::string> serials;

  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.dns_result != dns::outcome::a_record) {
      continue;
    }
    ++stats.names_with_a_record;
    if (rec.svc == internet::service_class::unresolved) {
      continue;
    }
    ++stats.http_reachable;  // port 80 answers for every live web host
    if (!rec.serves_tls()) {
      continue;
    }

    // Walk the redirect path, collecting every TLS name along it.
    std::size_t current = i;
    for (std::size_t hop = 0; hop <= kMaxRedirects; ++hop) {
      const auto& here = records[current];
      if (!here.serves_tls()) {
        break;
      }
      if (visited_tls.insert(current).second) {
        ++stats.names_covered;
        if (here.serves_quic()) {
          ++stats.quic_capable;
        }
        const x509::chain chain =
            model_.chain_of(here, internet::fetch_protocol::https);
        if (serials.insert(to_hex(chain.leaf().serial())).second) {
          ++stats.unique_certificates;
        }
      }
      if (here.redirect_to < 0 ||
          static_cast<std::size_t>(here.redirect_to) == current) {
        break;
      }
      ++stats.redirects_followed;
      current = static_cast<std::size_t>(here.redirect_to);
    }
    ++stats.https_reachable;
  }
  return stats;
}

}  // namespace certquic::http
