#include "core/policy_study.hpp"

#include "engine/backscatter.hpp"
#include "util/rng.hpp"

namespace certquic::core {

std::vector<policy_row> run_policy_study(const internet::model& m,
                                         ca::profile_id chain,
                                         const engine::options& exec) {
  struct policy_spec {
    quic::amplification_policy policy;
    const char* spec;
    const char* rule;
  };
  static constexpr policy_spec kSpecs[] = {
      {quic::amplification_policy::unlimited, "Drafts 01-08",
       "no server-side limit"},
      {quic::amplification_policy::min_initial_only, "Draft 09",
       "reject client Initials < 1200 octets"},
      {quic::amplification_policy::max_three_handshake_packets,
       "Drafts 10-12", "<= 3 Handshake packets before validation"},
      {quic::amplification_policy::max_three_datagrams, "Drafts 13-14",
       "<= 3 datagrams before validation"},
      {quic::amplification_policy::three_x_bytes, "Drafts 15-34, RFC 9000",
       "<= 3x bytes received before validation"},
  };

  // The ZMap imitation as a backscatter plan: one unacknowledged
  // 1200-byte Initial per policy, each probe in its own isolated world
  // (sessions_per_shard = 1) so the policies cannot interact. The same
  // chain is re-issued for every policy from a fixed stream, keeping
  // the ablation a pure policy comparison.
  engine::backscatter_plan plan;
  plan.base_seed = 0xdeed;
  plan.sessions_per_shard = 1;
  plan.provider_prefixes.emplace_back(net::ipv4::of(198, 51, 100, 0),
                                      "policy");
  const auto& eco = m.ecosystem();
  std::uint64_t stream = plan.base_seed;
  plan.sessions.reserve(std::size(kSpecs));
  for (std::size_t i = 0; i < std::size(kSpecs); ++i) {
    // A typical non-coalescing deployment makes the policies maximally
    // distinguishable (packet- and datagram-count rules then bite).
    quic::server_behavior behavior =
        quic::server_behavior::standard_no_coalesce();
    behavior.policy = kSpecs[i].policy;
    behavior.max_retransmissions = 2;  // same loss-recovery everywhere
    rng issue{0x7ab1e3};
    engine::spoofed_session session;
    session.server = net::endpoint_id{
        net::ipv4::of(198, 51, 100, static_cast<std::uint8_t>(1 + i)), 443};
    session.chain = eco.issue(eco.profile(chain), "policy.example", issue);
    session.behavior = behavior;
    session.sni = "policy.example";
    session.initial_size = 1200;
    session.timeout = net::seconds(30);
    session.seed = splitmix64(stream);
    plan.sessions.push_back(std::move(session));
  }

  const auto outcomes = engine::run_backscatter(plan, exec);
  std::vector<policy_row> rows;
  rows.reserve(std::size(kSpecs));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const policy_spec& spec = kSpecs[i];
    policy_row row;
    row.policy = spec.policy;
    row.spec = spec.spec;
    row.rule = spec.rule;
    row.bytes_sent = outcomes[i].attacker.bytes_sent_first_flight;
    row.bytes_received = outcomes[i].backscatter.bytes;
    row.amplification = row.bytes_sent == 0
                            ? 0.0
                            : static_cast<double>(row.bytes_received) /
                                  static_cast<double>(row.bytes_sent);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace certquic::core
