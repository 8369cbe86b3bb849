#include "scan/reach.hpp"

#include "net/simulator.hpp"
#include "quic/client.hpp"
#include "quic/server.hpp"
#include "util/errors.hpp"

namespace certquic::scan {

namespace {

void require_quic(const internet::service_record& rec) {
  if (!rec.serves_quic()) {
    throw config_error("reach::probe on non-QUIC service " + rec.domain);
  }
}

/// Everything one probe runs on: the simulator, the two endpoints and
/// the client's configuration. Each thread keeps one and resets it for
/// every probe, so a probe allocates only while the world's buffers
/// still grow. Every reset restores what a fresh object starts with, so
/// a result depends only on its record and options, never on the
/// probes this thread ran before.
struct probe_world {
  net::simulator sim;
  quic::server server{sim};
  quic::client client{sim};
  quic::client_config config;
};

probe_world& this_threads_world() {
  thread_local probe_world world;
  return world;
}

}  // namespace

probe_result reach::probe(const internet::service_record& rec,
                          const probe_options& opt) const {
  require_quic(rec);
  const x509::chain chain =
      internet::fetch_chain(model_, cache_, rec,
                            internet::fetch_protocol::quic,
                            opt.chain_profile);
  return probe(rec, opt, chain);
}

probe_result reach::probe(const internet::service_record& rec,
                          const probe_options& opt,
                          const x509::chain& chain) const {
  require_quic(rec);
  probe_world& w = this_threads_world();
  const std::uint64_t seed =
      opt.seed_override != 0 ? opt.seed_override : rec.seed;
  w.sim.reset(seed ^ 0x5ca7);

  const net::endpoint_id server_ep{rec.address, 443};
  const net::endpoint_id client_ep{net::ipv4::of(10, 99, 0, 1), 40443};

  // Forward path: the encapsulating load balancer (if any) eats into
  // the MTU in front of the server (§4.1). Both directions then share
  // the probe's network condition (delay/loss/bandwidth); the default
  // condition reproduces the historical 10 ms-each-way setup exactly.
  net::path_config to_server;
  to_server.encapsulation_overhead = rec.lb_overhead;
  opt.network.apply_to(to_server);
  w.sim.set_path_to(server_ep, to_server);
  net::path_config to_client;
  opt.network.apply_to(to_client);
  to_client.one_way_delay = opt.network.rtt - opt.network.rtt / 2;
  w.sim.set_path_to(client_ep, to_client);

  w.server.reset(server_ep, &chain, model_.behavior_of(rec),
                 model_.compression_dictionary(), seed ^ 0x5e4);

  // Every field from the defaults, then the probe's; assignment keeps
  // the storage of the SNI and the offers.
  static const quic::client_config kDefaults{};
  quic::client_config& config = w.config;
  config = kDefaults;
  config.initial_size = opt.initial_size;
  config.offer_compression.assign(opt.offer_compression.begin(),
                                  opt.offer_compression.end());
  config.sni.assign(rec.domain);
  config.capture_certificate = opt.capture_certificate;
  config.send_acks = opt.send_acks;
  config.ack_delay = opt.ack_delay;
  config.fetch_app_data = opt.measure_ttfb;
  if (opt.timeout) {
    config.timeout = *opt.timeout;
  }
  w.client.reset(client_ep, server_ep, config, seed ^ 0xC11);
  w.client.start();
  w.sim.run();

  probe_result out;
  out.obs = w.client.take_result();
  out.cls = classify(out.obs);
  if (out.obs.first_app_byte_time != 0) {
    out.ttfb = out.obs.first_app_byte_time - out.obs.start_time;
  }
  return out;
}

}  // namespace certquic::scan
