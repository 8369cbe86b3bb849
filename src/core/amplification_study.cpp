#include "core/amplification_study.hpp"

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace certquic::core {
namespace {

/// The hypergiant server fleets observed at the telescope.
struct provider_fleet {
  std::string name;
  net::ipv4 prefix;
};

constexpr std::uint64_t kTelescopeSeed = 0xa77ac;

/// Client Initial the telescope study assumes for its amplification
/// divisor: the paper divides telescope bytes by 1362.
constexpr std::size_t kAssumedInitial = 1362;

/// Per-session stream separator: pure function of the session's
/// position in the plan, so shard worlds never share randomness.
std::uint64_t session_seed(std::size_t index) {
  std::uint64_t state = kTelescopeSeed ^
                        (0x9e37'79b9'7f4a'7c15ULL * (index + 1));
  const std::uint64_t seed = splitmix64(state);
  return seed == 0 ? 1 : seed;
}

}  // namespace

engine::backscatter_plan build_telescope_plan(const internet::model& m,
                                              const spoofed_options& opt) {
  engine::backscatter_plan plan;
  plan.base_seed = kTelescopeSeed;
  // 10 per-provider session triples share one simulator + telescope
  // world. Part of the plan: it fixes which sessions coexist, so the
  // aggregates are identical at any thread count.
  plan.sessions_per_shard = 30;
  plan.dictionary = m.compression_dictionary();

  const provider_fleet fleets[] = {
      {"Cloudflare", net::ipv4::of(104, 16, 1, 0)},
      {"Google", net::ipv4::of(142, 250, 64, 0)},
      {"Meta", net::ipv4::of(157, 240, 229, 0)},
  };
  for (const auto& fleet : fleets) {
    plan.provider_prefixes.emplace_back(fleet.prefix, fleet.name);
  }

  // Backscatter at real telescopes is dominated by the heavily
  // retransmitting instagram/whatsapp infrastructure (§4.3: median
  // session ~51 s); bias the attacked Meta hosts accordingly.
  const auto pop = m.meta_pop(/*post_disclosure=*/false);
  std::vector<std::size_t> deep;
  std::vector<std::size_t> shallow;
  for (std::size_t h = 0; h < pop.size(); ++h) {
    if (!pop[h].serves_quic) {
      continue;
    }
    (pop[h].retransmissions >= 5 ? deep : shallow).push_back(h);
  }
  // A host's chain is a pure function of the host: issue it on the
  // host's first session, and let its later sessions share the
  // certificates.
  std::vector<x509::chain> meta_chains(pop.size());

  const auto& eco = m.ecosystem();
  plan.sessions.reserve(3 * opt.sessions_per_provider);
  const auto add = [&](const provider_fleet& fleet, x509::chain chain,
                       const quic::server_behavior& behavior,
                       const std::string& sni, std::size_t index) {
    engine::spoofed_session session;
    // Fleet slots wrap every 200 sessions so host octets stay inside
    // the /24. A reused slot only shares a server (and its chain) with
    // the colliding session when both land in the same shard world;
    // across shards each world spawns its own instance on first touch.
    session.server = net::endpoint_id{
        net::ipv4{fleet.prefix.value |
                  static_cast<std::uint32_t>(1 + index % 200)},
        443};
    session.chain = std::move(chain);
    session.behavior = behavior;
    session.sni = sni;
    session.initial_size = kAssumedInitial;
    session.timeout = net::seconds(400);
    session.seed = session_seed(plan.sessions.size());
    plan.sessions.push_back(std::move(session));
  };

  for (std::size_t i = 0; i < opt.sessions_per_provider; ++i) {
    rng issue{session_seed(plan.sessions.size()) ^ 0x155eULL};
    add(fleets[0],
        eco.issue(eco.profile(ca::profile_id::cloudflare),
                  "cf-" + std::to_string(i) + ".example", issue),
        quic::server_behavior::cloudflare(), "site.example", i);
    add(fleets[1],
        eco.issue(eco.profile(ca::profile_id::gts_1c3),
                  "g-" + std::to_string(i) + ".example", issue),
        quic::server_behavior::google(), "google.example", i);
    const bool pick_deep = !deep.empty() && (i % 4 != 0 || shallow.empty());
    const auto& pool = pick_deep ? deep : shallow;
    const std::size_t h = pool[i % pool.size()];
    if (meta_chains[h].empty()) {
      meta_chains[h] = m.meta_chain(pop[h]);
    }
    add(fleets[2], meta_chains[h], m.meta_behavior(pop[h]), pop[h].sni, i);
  }
  return plan;
}

telescope_result run_telescope_study(const internet::model& m,
                                     const spoofed_options& opt,
                                     const engine::options& exec) {
  telescope_result out;
  out.meta_session_duration_s.reserve(opt.sessions_per_provider);

  for (const auto& outcome :
       engine::run_backscatter(build_telescope_plan(m, opt), exec)) {
    const scan::backscatter_session& session = outcome.backscatter;
    if (session.datagrams == 0) {
      continue;  // the spoofed Initial elicited nothing
    }
    const double factor = static_cast<double>(session.bytes) /
                          static_cast<double>(kAssumedInitial);
    // Providers appear only once observed (a silent fleet prints no
    // row); reserve on the first observation.
    stats::sample_set& samples = out.amplification[session.provider];
    if (samples.empty()) {
      samples.reserve(opt.sessions_per_provider);
    }
    samples.add(factor);
    if (session.provider == "Meta") {
      out.meta_session_duration_s.add(net::to_seconds(session.duration()));
      out.meta_max_amplification =
          std::max(out.meta_max_amplification, factor);
    }
  }
  return out;
}

std::vector<meta_probe_row> run_meta_scan(const internet::model& m,
                                          bool post_disclosure,
                                          std::size_t repeats,
                                          const engine::options& exec) {
  const auto pop = m.meta_pop(post_disclosure);
  // The ZMap scan of §4.3 as a backscatter plan: `repeats` single
  // 1252-byte Initials, never acknowledged, per QUIC host, each probe in
  // its own isolated world (sessions_per_shard = 1) so repeats cannot
  // interact.
  engine::backscatter_plan plan;
  plan.sessions_per_shard = 1;
  plan.sessions.reserve(pop.size() * repeats);
  for (const auto& host : pop) {
    if (!host.serves_quic) {
      continue;
    }
    // The chain is a pure function of the host: issue it once, and let
    // the repeats share its certificates.
    const x509::chain chain = m.meta_chain(host);
    for (std::size_t k = 0; k < repeats; ++k) {
      engine::spoofed_session session;
      session.server = net::endpoint_id{host.address, 443};
      session.chain = chain;
      session.behavior = m.meta_behavior(host);
      session.sni = host.sni;
      session.initial_size = 1252;
      session.timeout = net::seconds(400);
      session.seed = host.seed + k;
      plan.sessions.push_back(std::move(session));
    }
  }

  const auto outcomes = engine::run_backscatter(plan, exec);
  std::vector<meta_probe_row> rows;
  rows.reserve(pop.size());
  auto next = outcomes.begin();
  for (const auto& host : pop) {
    meta_probe_row row;
    row.host_octet = host.address.host_octet();
    row.services = host.services;
    for (std::size_t k = 0; host.serves_quic && k < repeats; ++k, ++next) {
      const scan::backscatter_session& session = next->backscatter;
      const std::size_t sent = next->attacker.bytes_sent_first_flight;
      row.responded |= session.datagrams > 0;
      row.bytes_received = session.bytes;
      row.amplification.add(sent == 0 ? 0.0
                                      : static_cast<double>(session.bytes) /
                                            static_cast<double>(sent));
      // Span between the first and last backscatter datagram: the
      // "session duration" of §4.3 (Meta median ~51 s, max ~206 s).
      row.duration_s = net::to_seconds(session.duration());
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace certquic::core
