// Unit and integration tests for the measurement tools (§3.2 toolchain).
#include <gtest/gtest.h>

#include "quic/packet.hpp"
#include "scan/classify.hpp"
#include "scan/qscanner.hpp"
#include "scan/reach.hpp"
#include "scan/telescope.hpp"
#include "util/errors.hpp"

namespace certquic::scan {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 4000, .seed = 42});
  return m;
}

const internet::service_record* find_quic(internet::behavior_kind kind) {
  for (const auto& rec : shared_model().records()) {
    if (rec.serves_quic() && rec.behavior == kind && rec.cruise_sans == 0) {
      return &rec;
    }
  }
  return nullptr;
}

TEST(Classify, MapsObservationsToGroups) {
  quic::observation obs;
  EXPECT_EQ(classify(obs), handshake_class::unreachable);

  obs.response_received = true;
  obs.retry_seen = true;
  EXPECT_EQ(classify(obs), handshake_class::retry);

  obs.retry_seen = false;
  obs.handshake_complete = true;
  obs.bytes_sent_first_flight = 1200;
  obs.bytes_received_first_burst = 3600;
  EXPECT_EQ(classify(obs), handshake_class::one_rtt);

  obs.bytes_received_first_burst = 3601;
  EXPECT_EQ(classify(obs), handshake_class::amplification);

  obs.acks_before_complete = 1;
  EXPECT_EQ(classify(obs), handshake_class::multi_rtt);
}

TEST(Classify, Names) {
  EXPECT_EQ(to_string(handshake_class::one_rtt), "1-RTT");
  EXPECT_EQ(to_string(handshake_class::amplification), "Amplification");
}

TEST(Reach, ClassifiesByBehavior) {
  const reach prober{shared_model()};
  struct expectation {
    internet::behavior_kind kind;
    handshake_class cls;
  };
  const expectation cases[] = {
      {internet::behavior_kind::cloudflare, handshake_class::amplification},
      {internet::behavior_kind::standard_no_coalesce,
       handshake_class::multi_rtt},
      {internet::behavior_kind::retry_always, handshake_class::retry},
      {internet::behavior_kind::compliant_coalesce,
       handshake_class::one_rtt},
  };
  for (const auto& c : cases) {
    const auto* rec = find_quic(c.kind);
    if (rec == nullptr) {
      continue;  // not all kinds present in a 4k sample
    }
    const auto result = prober.probe(*rec, {.initial_size = 1362});
    EXPECT_EQ(result.cls, c.cls)
        << rec->domain << " / " << ca::to_string(rec->profile);
  }
}

TEST(Reach, RejectsNonQuicRecords) {
  const reach prober{shared_model()};
  for (const auto& rec : shared_model().records()) {
    if (!rec.serves_quic()) {
      EXPECT_THROW((void)prober.probe(rec, {}), config_error);
      break;
    }
  }
}

TEST(Reach, ProbeIsDeterministic) {
  const reach prober{shared_model()};
  const auto* rec = find_quic(internet::behavior_kind::cloudflare);
  ASSERT_NE(rec, nullptr);
  const auto a = prober.probe(*rec, {.initial_size = 1362});
  const auto b = prober.probe(*rec, {.initial_size = 1362});
  EXPECT_EQ(a.cls, b.cls);
  EXPECT_EQ(a.obs.bytes_received_total, b.obs.bytes_received_total);
}

TEST(QScanner, FetchesAndParsesChain) {
  const qscanner qs{shared_model()};
  const auto* rec = find_quic(internet::behavior_kind::standard_no_coalesce);
  ASSERT_NE(rec, nullptr);
  const auto fetched = qs.fetch(*rec);
  ASSERT_TRUE(fetched.ok);
  const auto chain =
      shared_model().chain_of(*rec, internet::fetch_protocol::quic);
  EXPECT_EQ(fetched.certificates.size(), chain.depth());
  EXPECT_EQ(fetched.chain_wire_size, chain.wire_size());
  // Leaf serial seen on the wire matches the chain we materialize.
  EXPECT_TRUE(qs.leaf_matches_https(shared_model(), *rec, fetched) ||
              rec->rotated_cert);
}

TEST(QScanner, DetectsRotation) {
  const qscanner qs{shared_model()};
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  for (const auto& rec : shared_model().records()) {
    if (!rec.serves_quic() || !rec.rotated_cert) {
      continue;
    }
    const auto fetched = qs.fetch(rec);
    if (!fetched.ok) {
      continue;
    }
    ++checked;
    mismatches += qs.leaf_matches_https(shared_model(), rec, fetched) ? 0 : 1;
    if (checked >= 3) {
      break;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(mismatches, checked);  // rotated => leaf differs
}

TEST(Telescope, AttributesBackscatterPerSensor) {
  net::simulator sim;
  telescope scope{sim, net::ipv4::of(203, 0, 113, 0)};
  scope.map_prefix(net::ipv4::of(104, 16, 1, 0), "Cloudflare");

  const auto sensor_a = scope.allocate_sensor();
  const auto sensor_b = scope.allocate_sensor();
  const auto sensor_c = scope.allocate_sensor();
  EXPECT_NE(sensor_a, sensor_b);

  // Hand-crafted backscatter from a "Cloudflare" host: two datagrams
  // of the session spoofing sensor_a, one of the session spoofing
  // sensor_b; sensor_c hears nothing.
  quic::packet p;
  p.type = quic::packet_type::initial;
  p.scid = quic::connection_id{bytes{1, 2, 3, 4}};
  p.dcid = quic::connection_id{bytes{9}};
  p.frames.push_back(quic::ack_frame{0});
  const bytes payload = quic::encode_datagram(std::vector<quic::packet>{p});
  const net::endpoint_id server{net::ipv4::of(104, 16, 1, 77), 443};
  sim.send({server, sensor_a, payload});
  sim.send({server, sensor_a, payload});
  sim.send({server, sensor_b, payload});
  sim.run();

  const backscatter_session a = scope.observed_at(sensor_a);
  const backscatter_session b = scope.observed_at(sensor_b);
  EXPECT_EQ(a.provider, "Cloudflare");
  EXPECT_EQ(b.provider, "Cloudflare");
  EXPECT_EQ(a.datagrams, 2u);
  EXPECT_EQ(b.datagrams, 1u);
  EXPECT_EQ(a.bytes, 2 * payload.size());
  EXPECT_EQ(b.bytes, payload.size());
  EXPECT_EQ(scope.observed_at(sensor_c).datagrams, 0u);
}

TEST(Telescope, UnmappedPrefixIsUnknown) {
  net::simulator sim;
  telescope scope{sim, net::ipv4::of(203, 0, 113, 0)};
  const auto sensor = scope.allocate_sensor();
  quic::packet p;
  p.type = quic::packet_type::initial;
  p.scid = quic::connection_id{bytes{1}};
  p.frames.push_back(quic::ack_frame{0});
  sim.send({{net::ipv4::of(8, 8, 8, 8), 443}, sensor,
            quic::encode_datagram(std::vector<quic::packet>{p})});
  sim.run();
  const backscatter_session session = scope.observed_at(sensor);
  EXPECT_EQ(session.datagrams, 1u);
  EXPECT_EQ(session.provider, "unknown");
}

// Property sweep: classification is stable across Initial sizes for
// unambiguous behaviours (retry stays retry, cloudflare stays
// amplification).
class StableClassification
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StableClassification, CloudflareAlwaysAmplifies) {
  const reach prober{shared_model()};
  const auto* rec = find_quic(internet::behavior_kind::cloudflare);
  ASSERT_NE(rec, nullptr);
  const auto result = prober.probe(*rec, {.initial_size = GetParam()});
  EXPECT_EQ(result.cls, handshake_class::amplification);
  EXPECT_EQ(result.obs.padding_bytes_first_burst, 2462u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StableClassification,
                         ::testing::Values(1200u, 1250u, 1302u, 1362u,
                                           1412u, 1472u));

}  // namespace
}  // namespace certquic::scan
