#include "engine/backscatter.hpp"

#include <algorithm>
#include <iterator>
#include <memory>

#include "net/simulator.hpp"
#include "quic/server.hpp"
#include "util/rng.hpp"

namespace certquic::engine {
namespace {

/// The /24 every world's telescope claims its sensors in (TEST-NET-3).
constexpr net::ipv4 kTelescopeBase = net::ipv4::of(203, 0, 113, 0);

/// Per-world stream separator: identical for a given (base, index)
/// regardless of how many worlds run concurrently.
std::uint64_t shard_seed(std::uint64_t base_seed, std::size_t world) {
  std::uint64_t state = base_seed ^ (0x9e37'79b9'7f4a'7c15ULL +
                                     static_cast<std::uint64_t>(world));
  const std::uint64_t seed = splitmix64(state);
  return seed == 0 ? 1 : seed;
}

/// Builds world `world` and runs sessions [lo, hi) inside it, in
/// ascending order; result[i] is session lo + i.
std::vector<backscatter_outcome> run_world(const backscatter_plan& plan,
                                           std::size_t world, std::size_t lo,
                                           std::size_t hi) {
  // One simulator and one telescope shared by the world's slice of
  // sessions. Everything seeded below is a pure function of the plan
  // and the world index, so the world's evolution cannot depend on
  // which thread runs it.
  net::simulator sim{shard_seed(plan.base_seed, world) ^ 0x7e1e'5c0eULL};
  scan::telescope scope{sim, kTelescopeBase};
  for (const auto& [prefix, provider] : plan.provider_prefixes) {
    scope.map_prefix(prefix, provider);
  }

  std::vector<std::unique_ptr<quic::server>> servers;
  std::vector<std::unique_ptr<quic::client>> attackers;
  std::vector<net::endpoint_id> sensors;
  attackers.reserve(hi - lo);
  sensors.reserve(hi - lo);

  for (std::size_t i = lo; i < hi; ++i) {
    const spoofed_session& session = plan.sessions[i];
    // Fleet endpoints may repeat across sessions (slot reuse); the
    // first session touching an endpoint in this world spawns its
    // server, later ones attack the existing instance. Servers borrow
    // the session's chain; the plan outlives this world.
    const bool spawned = std::any_of(
        servers.begin(), servers.end(),
        [&](const auto& srv) { return srv->address() == session.server; });
    if (!spawned) {
      servers.push_back(std::make_unique<quic::server>(
          sim, session.server, &session.chain, session.behavior,
          plan.dictionary, session.seed ^ 0x5e4));
    }
    quic::client_config config;
    config.initial_size = session.initial_size;
    config.send_acks = false;  // spoofed: replies route to the sensor
    config.sni = session.sni;
    config.timeout = session.timeout;
    config.spoof_source = scope.allocate_sensor();
    sensors.push_back(*config.spoof_source);
    const net::endpoint_id attacker_ep{
        net::ipv4::of(10, 66, 0, 1),
        static_cast<std::uint16_t>(10000 + (i - lo))};
    attackers.push_back(std::make_unique<quic::client>(
        sim, attacker_ep, session.server, std::move(config),
        session.seed ^ 0xC11));
    attackers.back()->start();
  }
  sim.run();

  std::vector<backscatter_outcome> out;
  out.reserve(attackers.size());
  for (std::size_t j = 0; j < attackers.size(); ++j) {
    out.push_back({attackers[j]->result(), scope.observed_at(sensors[j])});
  }
  return out;
}

}  // namespace

std::vector<backscatter_outcome> run_backscatter(const backscatter_plan& plan,
                                                 const options& opt) {
  const std::size_t sessions = plan.sessions.size();
  const std::size_t per_world =
      std::max<std::size_t>(plan.sessions_per_shard, 1);
  const std::size_t worlds = (sessions + per_world - 1) / per_world;
  // One world is one work item: its outcome vector already batches
  // per_world sessions, so no further chunking.
  options world_opt = opt;
  world_opt.chunk = 1;
  std::vector<backscatter_outcome> out;
  out.reserve(sessions);
  parallel_ordered(
      worlds, world_opt,
      [&](std::size_t w) {
        const std::size_t lo = w * per_world;
        return run_world(plan, w, lo, std::min(sessions, lo + per_world));
      },
      [&](std::size_t, std::vector<backscatter_outcome>&& world) {
        std::move(world.begin(), world.end(), std::back_inserter(out));
      });
  return out;
}

}  // namespace certquic::engine
