#include "core/tuner.hpp"

#include <algorithm>

#include "engine/engine.hpp"
#include "scan/reach.hpp"

namespace certquic::core {

void initial_size_tuner::record(const std::string& domain,
                                std::size_t server_flight_bytes) {
  cache_[domain] = server_flight_bytes;
}

std::size_t initial_size_tuner::recommend_for(
    std::size_t server_flight_bytes) {
  // The server may send up to 3x the client Initial before validation;
  // a small headroom covers ACK/padding overhead variations.
  const std::size_t needed = (server_flight_bytes + 2) / 3 + 16;
  return std::clamp(needed, kMinInitial, kMaxInitial);
}

std::size_t initial_size_tuner::recommend(const std::string& domain) const {
  const auto it = cache_.find(domain);
  if (it == cache_.end()) {
    return kMinInitial;
  }
  return recommend_for(it->second);
}

namespace {

/// Outcome of one service's two-visit probe pair.
struct visit_pair {
  bool was_multi = false;
  bool still_multi = false;
  bool converted = false;
};

}  // namespace

tuner_result run_tuner_study(const internet::model& m,
                             std::size_t max_services,
                             const engine::options& exec) {
  tuner_result out;
  const scan::reach prober{m};

  // The second visit's Initial size depends on the first visit of the
  // *same* service only, so each service's visit pair is an independent
  // unit of work: an adaptive two-probe job on the engine's pool.
  const std::vector<std::uint32_t> sampled = engine::sample_indices(
      m, engine::service_filter::quic, max_services);
  engine::parallel_ordered(
      sampled.size(), exec,
      [&](std::size_t i) {
        const auto& rec = m.records()[sampled[i]];
        // Both visits serve the same chain: materialize it once and let
        // each visit's server borrow it, so the repeat visit
        // re-simulates the handshake but not the issuance.
        const x509::chain chain =
            m.chain_of(rec, internet::fetch_protocol::quic);

        // Visit 1: RFC-minimum Initial; learn the server's flight size.
        scan::probe_options first;
        first.initial_size = initial_size_tuner::kMinInitial;
        const scan::probe_result visit1 = prober.probe(rec, first, chain);

        // Visit 2: tuned Initial.
        scan::probe_options second;
        second.initial_size =
            visit1.obs.bytes_received_total > 0
                ? initial_size_tuner::recommend_for(
                      visit1.obs.bytes_received_total)
                : initial_size_tuner::kMinInitial;
        const scan::probe_result visit2 = prober.probe(rec, second, chain);

        visit_pair pair;
        pair.was_multi = visit1.cls == scan::handshake_class::multi_rtt;
        pair.still_multi = visit2.cls == scan::handshake_class::multi_rtt;
        pair.converted =
            pair.was_multi && visit2.cls == scan::handshake_class::one_rtt;
        return pair;
      },
      [&](std::size_t, visit_pair&& pair) {
        ++out.services;
        out.multi_rtt_default += pair.was_multi ? 1 : 0;
        out.multi_rtt_tuned += pair.still_multi ? 1 : 0;
        out.converted_to_one_rtt += pair.converted ? 1 : 0;
      });
  return out;
}

}  // namespace certquic::core
