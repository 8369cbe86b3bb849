// Cross-module integration tests: the full Figure-10 pipeline and the
// end-to-end invariants that tie the substrates together.
#include <gtest/gtest.h>

#include "core/funnel.hpp"
#include "http/collector.hpp"
#include "quic/client.hpp"
#include "quic/server.hpp"
#include "scan/qscanner.hpp"
#include "scan/reach.hpp"
#include "tls/handshake.hpp"

namespace certquic {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 3000, .seed = 1234});
  return m;
}

TEST(Pipeline, DnsToCollectionToCensus) {
  const auto& m = shared_model();
  // Stage 1-2: HTTPS collection only visits resolvable TLS services.
  const http::collector collector{m};
  const auto collection = collector.collect_all();
  EXPECT_GT(collection.https_reachable, 1000u);

  // Stage 3: every collected QUIC service can be probed and classified.
  scan::reach prober{m};
  std::size_t probed = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    const auto result = prober.probe(rec, {.initial_size = 1362});
    EXPECT_NE(result.cls, scan::handshake_class::unreachable)
        << rec.domain;
    if (++probed >= 100) {
      break;
    }
  }
  EXPECT_EQ(probed, 100u);
}

TEST(Pipeline, QscannerAgreesWithHttpsCollectionForStableServices) {
  const auto& m = shared_model();
  const scan::qscanner qs{m};
  std::size_t checked = 0;
  std::size_t same = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic() || rec.rotated_cert) {
      continue;
    }
    const auto fetched = qs.fetch(rec);
    if (!fetched.ok) {
      continue;
    }
    ++checked;
    same += qs.leaf_matches_https(m, rec, fetched) ? 1 : 0;
    if (checked >= 40) {
      break;
    }
  }
  ASSERT_GT(checked, 0u);
  EXPECT_EQ(same, checked);  // non-rotated services are consistent
}

TEST(Pipeline, WireBytesMatchChainArithmetic) {
  // The bytes a scanner receives must reconcile with the chain the
  // model says the service serves: TLS flight = SH + EE + CertMsg(chain)
  // + CV + Fin.
  const auto& m = shared_model();
  scan::reach prober{m};
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic() ||
        rec.behavior != internet::behavior_kind::standard_no_coalesce) {
      continue;
    }
    const auto result =
        prober.probe(rec, {.initial_size = 1472,
                           .capture_certificate = true});
    if (!result.obs.handshake_complete) {
      continue;
    }
    const auto chain = m.chain_of(rec, internet::fetch_protocol::quic);
    const bytes cert_msg = tls::encode_certificate(chain);
    EXPECT_EQ(result.obs.certificate_msg_size, cert_msg.size())
        << rec.domain;
    // TLS bytes received >= certificate message (plus the other
    // handshake messages).
    EXPECT_GT(result.obs.tls_bytes_received, cert_msg.size());
    EXPECT_LT(result.obs.tls_bytes_received, cert_msg.size() + 800);
    break;
  }
}

TEST(Pipeline, FunnelCountsQuicConsistentlyWithRecords) {
  const auto& m = shared_model();
  const auto funnel = core::run_funnel(m, {.consistency_sample = 40});
  std::size_t quic = 0;
  for (const auto& rec : m.records()) {
    quic += rec.serves_quic() ? 1 : 0;
  }
  EXPECT_EQ(funnel.quic_services, quic);
  EXPECT_EQ(funnel.collection.quic_capable, quic);
}

// Failure injection: loss on the path must never break the
// anti-amplification invariant for compliant servers, and handshakes
// either complete or time out cleanly.
class LossInjection : public ::testing::TestWithParam<double> {};

TEST_P(LossInjection, CompliantServerSurvivesLoss) {
  const auto& m = shared_model();
  const internet::service_record* compliant = nullptr;
  for (const auto& rec : m.records()) {
    if (rec.serves_quic() &&
        rec.behavior == internet::behavior_kind::standard_no_coalesce) {
      compliant = &rec;
      break;
    }
  }
  ASSERT_NE(compliant, nullptr);

  net::simulator sim{77};
  const net::endpoint_id server_ep{compliant->address, 443};
  const net::endpoint_id client_ep{net::ipv4::of(10, 9, 9, 9), 4242};
  net::path_config lossy;
  lossy.loss_rate = GetParam();
  sim.set_path_to(client_ep, lossy);  // server->client direction drops

  quic::server srv{sim, server_ep,
                   m.chain_of(*compliant, internet::fetch_protocol::quic),
                   m.behavior_of(*compliant), m.compression_dictionary(), 5};
  quic::client cli{sim, client_ep, server_ep,
                   {.initial_size = 1362, .timeout = net::seconds(10)}, 6};
  cli.start();
  sim.run();

  const auto& obs = cli.result();
  EXPECT_TRUE(obs.handshake_complete || obs.timed_out);
  EXPECT_LE(obs.bytes_received_first_burst,
            3 * obs.bytes_sent_first_flight);
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossInjection,
                         ::testing::Values(0.0, 0.05, 0.2, 0.5, 0.9));

}  // namespace
}  // namespace certquic
