// Epoch-over-epoch churn for the longitudinal census service.
//
// Every decision of epoch k derives from splitmix64 streams seeded by
// (epoch_seed(base, k), record index) — no stream state crosses epoch
// or record boundaries. That makes the epoch-k population a pure
// function of (config, churn_config, k): the service can skip, replay
// or crash-resume epochs in any order and always sees the same world,
// which is the invariant the resume bit-identity tests pin down.
#include <cstddef>

#include "internet/model.hpp"
#include "util/rng.hpp"

namespace certquic::internet {
namespace {

constexpr std::uint64_t kGolden = 0x9e37'79b9'7f4a'7c15ULL;

/// Chain profiles a migrating or arriving service can land on: named
/// profiles the generator itself deals from. chain_of resolves any
/// profile_id, so the table needs no validation.
constexpr ca::profile_id kChurnChains[] = {
    ca::profile_id::le_r3_x1cross, ca::profile_id::le_e1_x2,
    ca::profile_id::gts_1c3,       ca::profile_id::cloudflare,
    ca::profile_id::sectigo,       ca::profile_id::le_r3,
};

/// Uniform double in [0, 1) from one raw draw (same construction as
/// rng::uniform01, without instantiating a generator).
double unit(std::uint64_t u) noexcept {
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

/// The decision bundle one record draws for one epoch. All draws are
/// taken up front so the consumed stream length never depends on the
/// record's current state.
struct churn_draws {
  double depart;
  double arrive;
  double key;
  double chain;
  double alpn;
  std::uint64_t pick;
  std::uint64_t fresh_seed;
};

churn_draws draw_for(std::uint64_t epoch_stream, std::size_t index) {
  std::uint64_t x =
      epoch_stream ^ (static_cast<std::uint64_t>(index) + 1) * kGolden;
  (void)splitmix64(x);  // decorrelate from the xor construction
  churn_draws d;
  d.depart = unit(splitmix64(x));
  d.arrive = unit(splitmix64(x));
  d.key = unit(splitmix64(x));
  d.chain = unit(splitmix64(x));
  d.alpn = unit(splitmix64(x));
  d.pick = splitmix64(x);
  d.fresh_seed = splitmix64(x);
  return d;
}

void clear_tls_state(service_record& rec) {
  rec.profile = ca::profile_id::other;
  rec.force_rsa_leaf = false;
  rec.cruise_sans = 0;
  rec.rotated_cert = false;
  rec.supports_brotli = false;
  rec.supports_all_algorithms = false;
  rec.lb_overhead = 0;
}

/// Fresh deployment state for a domain entering the TLS population.
void deploy_service(service_record& rec, const churn_draws& d) {
  rec.seed = d.fresh_seed;
  clear_tls_state(rec);
  rec.svc = (d.pick & 1) != 0 ? service_class::quic
                              : service_class::https_only;
  rec.profile = kChurnChains[(d.pick >> 1) % std::size(kChurnChains)];
  rec.behavior = rec.profile == ca::profile_id::cloudflare
                     ? behavior_kind::cloudflare
                     : ((d.pick & 0x100) != 0
                            ? behavior_kind::compliant_coalesce
                            : behavior_kind::standard_no_coalesce);
  rec.supports_brotli = (d.pick >> 16) % 100 < 96;  // Table 1 rate
}

}  // namespace

std::uint64_t epoch_seed(std::uint64_t base_seed,
                         std::uint64_t epoch) noexcept {
  std::uint64_t x = base_seed ^ 0xE90C'0000'5EED'0000ULL ^ (epoch * kGolden);
  (void)splitmix64(x);
  return splitmix64(x);
}

churn_summary model::step_epoch(const churn_config& churn) {
  churn_summary step{};
  step.epoch = ++epoch_;
  const std::uint64_t stream = epoch_seed(seed_, epoch_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    service_record& rec = records_[i];
    const churn_draws d = draw_for(stream, i);

    if (rec.svc != service_class::unresolved) {
      if (d.depart < churn.departure) {
        // The domain went dark: next epoch's scan sees a DNS miss.
        rec.svc = service_class::unresolved;
        rec.dns_result = dns::outcome::timeout;
        rec.address = net::ipv4{};
        clear_tls_state(rec);
        rec.behavior = behavior_kind::standard_no_coalesce;
        ++step.departures;
        continue;
      }
    } else if (d.arrive < churn.arrival) {
      // A dark domain came online — run it through the DNS funnel
      // under its fresh seed; only an A record admits it.
      const dns::resolution res = resolver_.resolve(d.fresh_seed);
      if (res.result == dns::outcome::a_record) {
        rec.dns_result = res.result;
        rec.address = res.address;
        deploy_service(rec, d);
        ++step.arrivals;
      }
      continue;
    }

    if (rec.svc == service_class::no_tls) {
      if (d.arrive < churn.arrival) {
        // An existing plain-HTTP host grew a TLS (or QUIC) endpoint.
        deploy_service(rec, d);
        ++step.arrivals;
      }
      continue;
    }
    if (!rec.serves_tls()) {
      continue;
    }

    if (d.key < churn.key_rotation) {
      // Re-keyed certificate: the chain structure stays, the bytes
      // (and the record-derived probe randomness) change.
      rec.seed = d.fresh_seed;
      ++step.key_rotations;
    }
    if (d.chain < churn.chain_migration) {
      const ca::profile_id next =
          kChurnChains[d.pick % std::size(kChurnChains)];
      if (rec.profile != next) {
        rec.profile = next;
        rec.force_rsa_leaf = false;
        rec.cruise_sans = 0;
        ++step.chain_migrations;
      }
    }
    if (rec.svc == service_class::https_only && d.alpn < churn.alpn_gain) {
      rec.svc = service_class::quic;
      rec.behavior = (d.pick & 2) != 0
                         ? behavior_kind::compliant_coalesce
                         : behavior_kind::standard_no_coalesce;
      ++step.alpn_gains;
    } else if (rec.svc == service_class::quic &&
               d.alpn < churn.alpn_loss) {
      rec.svc = service_class::https_only;
      ++step.alpn_losses;
    }
  }
  return step;
}

model model::at_epoch(const config& cfg, const churn_config& churn,
                      std::uint64_t epoch, churn_summary* last) {
  model m = generate(cfg);
  churn_summary summary{};
  while (m.epoch() < epoch) {
    summary = m.step_epoch(churn);
  }
  if (last != nullptr) {
    *last = summary;
  }
  return m;
}

}  // namespace certquic::internet
