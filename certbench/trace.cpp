// The probe-layer ledger of a traced run. A fixed subset of the
// workload's units is replayed serially through the same public calls
// scan::reach::probe makes (fetch_chain, a net::simulator with a
// quic::server and quic::client, simulator::run, scan::classify), each
// call timed as its own span, and checked against reach::probe on the
// same record. The TLS flight build and the QUIC datagram codec run
// inside simulator::run, so they are timed separately on the same
// records' chains and datagrams; the spill layer is timed on the
// replayed records.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>

#include "certbench.hpp"
#include "core/longitudinal.hpp"
#include "core/stream_digest.hpp"
#include "engine/spill.hpp"
#include "internet/chain_cache.hpp"
#include "net/simulator.hpp"
#include "quic/client.hpp"
#include "quic/packet.hpp"
#include "quic/server.hpp"
#include "scan/classify.hpp"
#include "scan/reach.hpp"
#include "tls/handshake.hpp"

namespace certbench {

using namespace certquic;

namespace {

const net::endpoint_id kClientEp{net::ipv4::of(10, 99, 0, 1), 40443};

double us(bench_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The scan options reach_backend hands reach::probe for one unit.
scan::probe_options unit_options(const engine::probe_plan& plan,
                                 const engine::probe_variant& variant,
                                 const internet::service_record& rec) {
  scan::probe_options opt = variant.to_probe_options();
  opt.seed_override =
      engine::probe_seed(plan.base_seed, rec.domain, variant.salt);
  return opt;
}

/// The simulator seed reach::probe derives from its options.
std::uint64_t sim_seed(const scan::probe_options& opt,
                       const internet::service_record& rec) {
  return opt.seed_override != 0 ? opt.seed_override : rec.seed;
}

quic::client_config client_config_of(const scan::probe_options& opt,
                                     const internet::service_record& rec) {
  quic::client_config config;
  config.initial_size = opt.initial_size;
  config.offer_compression = opt.offer_compression;
  config.sni = rec.domain;
  config.capture_certificate = opt.capture_certificate;
  config.send_acks = opt.send_acks;
  config.ack_delay = opt.ack_delay;
  config.fetch_app_data = opt.measure_ttfb;
  if (opt.timeout) {
    config.timeout = *opt.timeout;
  }
  return config;
}

/// Span durations and counters of one replayed probe.
struct replica_probe {
  scan::probe_result result;
  double fetch_us = 0;     // internet: fetch_chain + behavior_of
  double net_setup_us = 0; // net: simulator + paths
  double quic_setup_us = 0;// quic: server, client, first flight
  double run_us = 0;       // net: simulator::run incl. endpoint handlers
  double classify_us = 0;  // scan: classify
  std::size_t events = 0;
  quic::server_stats server{};
  net::traffic_stats traffic{};
};

/// One probe assembled by hand from the calls reach::probe makes.
replica_probe replay_probe(const internet::model& m,
                           const internet::chain_cache* cache,
                           const internet::service_record& rec,
                           const scan::probe_options& opt) {
  replica_probe out;
  const std::uint64_t seed = sim_seed(opt, rec);
  const net::endpoint_id server_ep{rec.address, 443};
  const auto t0 = bench_clock::now();
  x509::chain chain = internet::fetch_chain(
      m, cache, rec, internet::fetch_protocol::quic, opt.chain_profile);
  quic::server_behavior behavior = m.behavior_of(rec);
  const auto t1 = bench_clock::now();

  net::simulator sim{seed ^ 0x5ca7};
  net::path_config to_server;
  to_server.encapsulation_overhead = rec.lb_overhead;
  opt.network.apply_to(to_server);
  sim.set_path_to(server_ep, to_server);
  net::path_config to_client;
  opt.network.apply_to(to_client);
  to_client.one_way_delay = opt.network.rtt - opt.network.rtt / 2;
  sim.set_path_to(kClientEp, to_client);
  const auto t2 = bench_clock::now();

  quic::server srv{sim,
                   server_ep,
                   std::move(chain),
                   std::move(behavior),
                   m.compression_dictionary(),
                   seed ^ 0x5e4};
  quic::client cli{sim, kClientEp, server_ep, client_config_of(opt, rec),
                   seed ^ 0xC11};
  cli.start();
  const auto t3 = bench_clock::now();

  out.events = sim.run();
  const auto t4 = bench_clock::now();

  out.result.obs = cli.result();
  out.result.cls = scan::classify(out.result.obs);
  if (out.result.obs.first_app_byte_time != 0) {
    out.result.ttfb =
        out.result.obs.first_app_byte_time - out.result.obs.start_time;
  }
  const auto t5 = bench_clock::now();

  out.fetch_us = us(t1 - t0);
  out.net_setup_us = us(t2 - t1);
  out.quic_setup_us = us(t3 - t2);
  out.run_us = us(t4 - t3);
  out.classify_us = us(t5 - t4);
  out.server = srv.stats();
  out.traffic = sim.stats();
  return out;
}

std::uint64_t record_digest(std::uint32_t service, std::uint32_t variant,
                            const scan::probe_result& r) {
  std::uint64_t h = core::kStreamDigestSeed;
  core::digest_record(h, service, variant, r);
  return h;
}

/// The datagrams one handshake puts on the wire: the client's first
/// flight (captured at a tap standing in for the server) and the
/// server's flights answering it (captured at a tap standing in for
/// the client). Codec input only; no classification depends on it.
void capture_datagrams(const internet::model& m,
                       const internet::service_record& rec,
                       const scan::probe_options& opt,
                       const x509::chain& chain, std::vector<bytes>& out) {
  const std::uint64_t seed = sim_seed(opt, rec);
  const net::endpoint_id server_ep{rec.address, 443};
  bytes client_initial;
  {
    net::simulator sim{seed ^ 0x5ca7};
    quic::client cli{sim, kClientEp, server_ep, client_config_of(opt, rec),
                     seed ^ 0xC11};
    sim.attach(server_ep, [&](const net::datagram& d) {
      if (client_initial.empty()) {
        client_initial = d.payload;
      }
    });
    cli.start();
    sim.run();
  }
  if (client_initial.empty()) {
    return;
  }
  out.push_back(client_initial);
  net::simulator sim{seed ^ 0x5ca7};
  quic::server srv{sim,          server_ep, chain, m.behavior_of(rec),
                   m.compression_dictionary(), seed ^ 0x5e4};
  sim.attach(kClientEp,
             [&](const net::datagram& d) { out.push_back(d.payload); });
  sim.send({kClientEp, server_ep, client_initial});
  sim.run();
}

/// Median over `rounds` of the per-item time of `fn` applied to every
/// item, in microseconds.
template <typename Items, typename Fn>
double per_item_us(const Items& items, int rounds, Fn&& fn) {
  std::vector<double> per;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = bench_clock::now();
    for (const auto& item : items) {
      fn(item);
    }
    per.push_back(us(bench_clock::now() - t0) /
                  static_cast<double>(std::max<std::size_t>(1, items.size())));
  }
  return median(per);
}

}  // namespace

double probe_layer_ledger(const ledger_input& in, metric_map& out,
                          std::vector<check>& checks) {
  const internet::model& m = in.model;
  const engine::probe_plan& plan = in.plan;
  const std::size_t services = in.services.size();
  const std::size_t variants = plan.variants.size();
  const std::size_t units = services * variants;

  // Multi-variant plans memoize chains exactly like reach_backend; the
  // replica and the reference prober each get their own cache so both
  // see the same hit pattern.
  std::optional<internet::chain_cache> replica_cache;
  std::optional<internet::chain_cache> probe_cache;
  if (variants > 1) {
    replica_cache.emplace(m);
    probe_cache.emplace(m);
  }
  const internet::chain_cache* rc = replica_cache ? &*replica_cache : nullptr;
  const scan::reach prober{m, probe_cache ? &*probe_cache : nullptr};

  std::vector<scan::probe_result> results(units);
  std::vector<double> probe_us(units);
  std::vector<double> fetch, net_setup, quic_setup, run, classify;
  std::vector<double> events, datagrams, blocked, connections;
  std::uint64_t sends = 0;
  std::uint64_t drops = 0;
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < units; ++k) {
    const auto v = static_cast<std::uint32_t>(k / services);
    const std::uint32_t svc = in.services[k % services];
    const auto& variant = plan.variants[v];
    const auto& rec = m.records()[svc];
    const scan::probe_options popt = unit_options(plan, variant, rec);

    const replica_probe rp = replay_probe(m, rc, rec, popt);
    const auto t0 = bench_clock::now();
    results[k] = prober.probe(rec, popt);
    probe_us[k] = us(bench_clock::now() - t0);

    if (rp.result.cls != results[k].cls ||
        record_digest(svc, v, rp.result) !=
            record_digest(svc, v, results[k])) {
      ++mismatches;
    }
    fetch.push_back(rp.fetch_us);
    net_setup.push_back(rp.net_setup_us);
    quic_setup.push_back(rp.quic_setup_us);
    run.push_back(rp.run_us);
    classify.push_back(rp.classify_us);
    events.push_back(static_cast<double>(rp.events));
    datagrams.push_back(static_cast<double>(rp.server.datagrams_sent +
                                            rp.result.obs.client_datagrams));
    blocked.push_back(static_cast<double>(rp.server.budget_blocked_flights));
    connections.push_back(static_cast<double>(rp.server.connections));
    const auto& t = rp.traffic;
    const std::uint64_t dropped =
        t.dropped_oversize + t.dropped_loss + t.dropped_unroutable;
    drops += dropped;
    sends += t.delivered + dropped;
  }
  const double cache_hit_ratio =
      replica_cache ? static_cast<double>(replica_cache->hits()) /
                          static_cast<double>(std::max<std::size_t>(
                              1, replica_cache->hits() +
                                     replica_cache->misses()))
                    : 0.0;
  checks.push_back({"replica_fidelity", mismatches == 0,
                    std::to_string(mismatches) + " of " +
                        std::to_string(units) +
                        " replica probes differ from reach::probe"});

  // Chain materialization without a cache, on the subset's services.
  std::vector<x509::chain> chains;
  chains.reserve(services);
  const auto tc = bench_clock::now();
  for (const std::uint32_t svc : in.services) {
    chains.push_back(m.chain_of(m.records()[svc], in.chain_protocol));
  }
  const double chain_of_us =
      us(bench_clock::now() - tc) /
      static_cast<double>(std::max<std::size_t>(1, services));
  std::vector<double> chain_bytes;
  for (const auto& c : chains) {
    chain_bytes.push_back(static_cast<double>(c.wire_size()));
  }

  // TLS flight build and QUIC datagram codec on (at most 256 of) the
  // replayed units' chains and wire images.
  std::vector<x509::chain> flight_chains;
  std::vector<bytes> wire;
  const std::size_t codec_units = std::min<std::size_t>(units, 256);
  for (std::size_t i = 0; i < codec_units; ++i) {
    const std::size_t k = i * units / codec_units;
    const auto& variant = plan.variants[k / services];
    const auto& rec = m.records()[in.services[k % services]];
    const scan::probe_options popt = unit_options(plan, variant, rec);
    flight_chains.push_back(internet::fetch_chain(
        m, rc, rec, internet::fetch_protocol::quic, popt.chain_profile));
    capture_datagrams(m, rec, popt, flight_chains.back(), wire);
  }
  rng flight_rng{0xf1197};
  std::size_t sink = 0;
  const double flight_us = per_item_us(flight_chains, 5, [&](const auto& c) {
    sink += tls::build_server_flight(c, nullptr, flight_rng).total_size();
  });
  std::vector<std::vector<quic::packet>> parsed;
  parsed.reserve(wire.size());
  for (const auto& w : wire) {
    parsed.push_back(quic::parse_datagram(w));
  }
  std::size_t codec_mismatches = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    codec_mismatches += quic::encode_datagram(parsed[i]) != wire[i] ? 1 : 0;
  }
  checks.push_back({"codec_roundtrip", codec_mismatches == 0,
                    std::to_string(codec_mismatches) + " of " +
                        std::to_string(wire.size()) +
                        " datagrams re-encode differently"});
  const double parse_us = per_item_us(wire, 5, [&](const bytes& w) {
    sink += quic::parse_datagram(w).size();
  });
  const double encode_us =
      per_item_us(parsed, 5, [&](const std::vector<quic::packet>& p) {
        sink += quic::encode_datagram(p).size();
      });

  // Spill layer on the replayed records: encode through spill_sink into
  // four shard slices, then spill_probe, replay and merge them back.
  const std::size_t shards = std::min<std::size_t>(4, services);
  const std::size_t per_shard = (services + shards - 1) / shards;
  std::vector<std::string> paths;
  bench_clock::duration encode{0};
  std::uintmax_t spill_bytes = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t lo = std::min(services, s * per_shard);
    const std::size_t hi = std::min(services, lo + per_shard);
    paths.push_back((in.scratch / ("shard_" + std::to_string(s) + ".spill"))
                        .string());
    {
      engine::spill_sink spill{paths.back()};
      spill.on_begin(plan, hi - lo);
      for (std::uint32_t v = 0; v < variants; ++v) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint32_t svc = in.services[i];
          const engine::probe_record rec{svc, v, m.records()[svc],
                                         plan.variants[v],
                                         results[v * services + i]};
          const auto t0 = bench_clock::now();
          spill.on_record(rec);
          encode += bench_clock::now() - t0;
        }
      }
      spill.on_end();
    }
    spill_bytes += std::filesystem::file_size(paths.back());
  }
  const double records = static_cast<double>(std::max<std::size_t>(1, units));
  bool shards_complete = true;
  const double probe_ms = per_item_us(paths, 3, [&](const std::string& p) {
    shards_complete = shards_complete && engine::spill_probe(p).complete();
  }) / 1000.0;
  engine::callback_sink noop{[](const engine::probe_record&) {}};
  const engine::spill_reader reader{m, plan};
  const double decode_us =
      per_item_us(paths, 3, [&](const std::string& p) {
        reader.replay(p, noop);
      }) * static_cast<double>(paths.size()) / records;
  const engine::spill_merge merge{m, plan};
  const std::vector<int> once{0};
  const double merge_us =
      per_item_us(once, 3, [&](int) { merge.replay(paths, noop); }) / records;
  core::epoch_aggregate agg;
  core::epoch_aggregate_sink fold{agg};
  timing_sink timed_fold{fold};
  merge.replay(paths, timed_fold);
  std::uint64_t expect = core::kStreamDigestSeed;
  for (std::size_t k = 0; k < units; ++k) {
    core::digest_record(expect,
                        in.services[k % services],
                        static_cast<std::uint32_t>(k / services), results[k]);
  }
  checks.push_back({"spill_replay", shards_complete &&
                                        agg.records == units &&
                                        agg.stream_digest == expect,
                    "merged spill stream digest " + hex16(agg.stream_digest) +
                        " vs direct " + hex16(expect)});
  for (const auto& p : paths) {
    std::filesystem::remove(p);
  }

  // Layer split of one probe. TLS flight build and the datagram codec
  // run inside simulator::run; their serial costs are carved out of the
  // net span by call counts.
  const double probe_mean = mean(probe_us);
  const double tls_self = flight_us * mean(connections);
  const double codec_self = (encode_us + parse_us) * mean(datagrams);
  const double spans = mean(fetch) + mean(net_setup) + mean(quic_setup) +
                       mean(run) + mean(classify);

  out["internet.chain_of_us"] = {chain_of_us, "us"};
  out["internet.chain_bytes"] = {mean(chain_bytes), "bytes"};
  out["internet.chain_cache_hit_ratio"] = {cache_hit_ratio, "ratio"};
  out["tls.server_flight_us"] = {flight_us, "us"};
  out["quic.encode_us"] = {encode_us, "us"};
  out["quic.parse_us"] = {parse_us, "us"};
  out["quic.datagrams_per_probe"] = {mean(datagrams), "count"};
  out["quic.budget_blocked_per_probe"] = {mean(blocked), "count"};
  out["net.events_per_probe"] = {mean(events), "count"};
  out["net.run_us"] = {mean(run), "us"};
  out["net.dropped_share"] = {
      static_cast<double>(drops) /
          static_cast<double>(std::max<std::uint64_t>(1, sends)),
      "ratio"};
  out["scan.probe_us_p50"] = {percentile(probe_us, 0.5), "us"};
  out["scan.probe_us_p99"] = {percentile(probe_us, 0.99), "us"};
  out["scan.unattributed_share"] = {
      1.0 - spans / std::max(probe_mean, 1e-9), "ratio"};
  out["self.internet_us"] = {mean(fetch), "us"};
  out["self.tls_us"] = {tls_self, "us"};
  out["self.quic_us"] = {mean(quic_setup) + codec_self, "us"};
  out["self.net_us"] = {mean(net_setup) + mean(run) - tls_self - codec_self,
                        "us"};
  out["self.scan_us"] = {mean(classify), "us"};
  out["engine.spill_encode_us"] = {us(encode) / records, "us"};
  out["engine.spill_bytes_per_record"] = {
      static_cast<double>(spill_bytes) / records, "bytes"};
  out["engine.spill_decode_us"] = {decode_us, "us"};
  out["engine.spill_merge_us"] = {merge_us, "us"};
  out["engine.spill_probe_ms"] = {probe_ms, "ms"};
  out["core.fold_ns"] = {timed_fold.busy_seconds() * 1e9 / records, "ns"};
  std::printf("ledger   %zu replica units (%zu services x %zu variants), "
              "%zu datagrams, %zu bytes through the codec and flight calls\n",
              units, services, variants, wire.size(), sink);
  return probe_mean;
}

}  // namespace certbench
