#include "internet/model.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <thread>

#include "util/assert.hpp"
#include "util/errors.hpp"

namespace certquic::internet {

using ca::profile_id;

namespace {

// Fig. 13: handshake-class percentages per rank group at Initial=1362,
// rows ordered most-popular group first: {Amplification, Multi-RTT,
// RETRY, 1-RTT}.
constexpr double kClassMatrix[10][4] = {
    {64.18, 32.76, 0.04, 3.02},  // [1, 100001)
    {64.46, 34.53, 0.07, 0.95},
    {62.86, 36.34, 0.04, 0.76},
    {64.31, 35.10, 0.08, 0.50},
    {63.30, 36.39, 0.03, 0.29},
    {61.43, 38.33, 0.03, 0.21},
    {56.55, 43.15, 0.06, 0.23},
    {57.50, 42.33, 0.01, 0.16},
    {56.80, 42.96, 0.06, 0.18},
    {57.37, 42.40, 0.06, 0.18},  // [900001, 1000001)
};

// Multi-RTT chain mix: Fig. 7a rows that exceed the limit at common
// Initial sizes (weights are the published shares; `other` covers the
// long tail outside the top-10).
struct chain_weight {
  profile_id id;
  double weight;
  double rsa_leaf_fraction;
};
constexpr chain_weight kMultiRttChains[] = {
    {profile_id::le_r3_x1cross, 16.80, 1.0},
    {profile_id::le_r3_x1cross_ec, 10.31, 0.0},
    {profile_id::le_e1_x2, 1.55, 0.0},
    {profile_id::gts_1c3, 1.53, 0.1},
    {profile_id::le_r3_x1self, 1.27, 0.4},
    {profile_id::gts_1d4, 1.03, 0.0},
    {profile_id::sectigo, 0.92, 1.0},
    {profile_id::cpanel, 0.83, 1.0},
    {profile_id::globalsign, 0.37, 1.0},
    {profile_id::other, 2.20, 0.0},
};

// Non-Cloudflare amplifiers (4% of the amplifying class): legacy
// implementations fronting ordinary — mostly large — chains.
constexpr chain_weight kLegacyAmplifierChains[] = {
    {profile_id::le_r3_x1cross, 0.40, 1.0},
    {profile_id::sectigo, 0.25, 1.0},
    {profile_id::cpanel, 0.20, 1.0},
    {profile_id::gts_1c3, 0.15, 0.2},
};

// 1-RTT chain mix: small ECDSA chains behind compliant coalescing
// servers. The gts-1c3 entry is deliberately borderline: it only fits
// the budget for large client Initials, feeding the 1-RTT uptick the
// paper observes for bigger Initials.
constexpr chain_weight kOneRttChains[] = {
    {profile_id::le_e1_x2, 0.45, 0.0},
    {profile_id::cloudflare, 0.30, 0.0},
    {profile_id::le_r3, 0.10, 0.0},
    {profile_id::gts_1c3, 0.15, 0.0},
};

// Fig. 7b chain mix for HTTPS-only services (shares sum to 71.91; the
// remainder flows through the `other` generator).
constexpr chain_weight kHttpsChains[] = {
    {profile_id::le_r3_x1cross, 41.42, 0.9},
    {profile_id::sectigo, 6.33, 1.0},
    {profile_id::cpanel, 5.03, 1.0},
    {profile_id::digicert, 4.55, 0.95},
    {profile_id::amazon, 4.24, 1.0},
    {profile_id::comodo, 4.03, 1.0},
    {profile_id::le_r3, 1.76, 0.6},
    {profile_id::godaddy, 1.60, 1.0},
    {profile_id::comodo_with_root, 1.55, 1.0},
    {profile_id::cloudflare, 1.40, 0.0},
    {profile_id::other, 28.09, 0.0},
};

constexpr const char* kTlds[] = {"com", "com", "com", "com", "net",
                                 "org", "io",  "de",  "co",  "app"};

std::string synth_domain(std::uint32_t rank, rng& r) {
  // Rank-tagged names keep the population readable in reports while the
  // random label models realistic name-length variance.
  return r.ascii_label(4, 14) + std::to_string(rank % 997) + "." +
         kTlds[r.uniform(0, std::size(kTlds) - 1)];
}

/// Weighted chain pick without per-record heap churn: the weights land
/// in a stack array sized by the (constexpr) table. Deliberately NOT a
/// function-local static — same-sized tables share one template
/// instantiation, so a static would be initialized from whichever
/// table is consulted first and poison the others (and its magic-
/// static init would race under parallel synthesis). Draw-stream-
/// identical to the historical vector-building version —
/// weighted_index consumes exactly one uniform either way.
template <std::size_t N>
const chain_weight& pick_chain(rng& r, const chain_weight (&table)[N]) {
  std::array<double, N> weights;
  for (std::size_t i = 0; i < N; ++i) {
    weights[i] = table[i].weight;
  }
  return table[r.weighted_index(weights)];
}

std::size_t resolved_synth_threads(std::size_t requested,
                                   std::size_t domains) {
  if (requested > 0) {
    return requested;  // an explicit request is always honoured
  }
  const unsigned hw = std::thread::hardware_concurrency();
  // Auto mode only: don't spin up a pool for populations too small to
  // amortize the thread launch.
  return std::min<std::size_t>(hw == 0 ? 1 : hw,
                               std::max<std::size_t>(1, domains / 4096));
}

}  // namespace

model model::generate(const config& cfg) {
  model m;
  m.seed_ = cfg.seed;
  m.eco_ = ca::ecosystem::make(cfg.seed ^ 0xCA);
  m.resolver_ = dns::resolver{cfg.seed ^ 0xD25};
  m.dictionary_ = m.eco_.compression_dictionary();

  rng master{cfg.seed};
  const std::size_t group_size =
      std::max<std::size_t>(1, cfg.domains / kRankGroups);

  // Per-group deployment rates: QUIC ~21% (sigma ~3pp across groups),
  // HTTPS-only ~59% (Fig. 12).
  std::array<double, kRankGroups> quic_rate{};
  std::array<double, kRankGroups> https_rate{};
  for (std::size_t g = 0; g < kRankGroups; ++g) {
    quic_rate[g] = std::clamp(master.normal(0.21, 0.028), 0.14, 0.28);
    https_rate[g] = std::clamp(master.normal(0.59, 0.02), 0.52, 0.66);
  }

  // The master stream's only remaining job is handing every record its
  // seed; everything below is a pure function of (rank, seed) and the
  // rates above. That makes synthesis embarrassingly parallel *and*
  // bit-identical at any thread count — the million-record census
  // population builds in the time of the seed walk plus N/threads
  // record syntheses, with no quadratic pass and no chain
  // materialization (chains stay on-demand via chain_of).
  //
  // The record table is sized before the transient seed table, so a
  // model generated after another was freed (every run_epochs call
  // generates one) fits the freed table's hole; a seed table allocated
  // first would split that hole and push the records onto fresh heap.
  m.records_.resize(cfg.domains);
  std::vector<std::uint64_t> seeds(cfg.domains);
  for (auto& seed : seeds) {
    seed = master.next();
  }

  const double a_rate = m.resolver_.rates().a_record;
  const auto synth_record = [&](std::uint32_t index) {
    const std::uint32_t rank = index + 1;
    service_record& rec = m.records_[index];
    rec.rank = rank;
    rec.seed = seeds[index];
    rng r{rec.seed};
    rec.domain = synth_domain(rank, r);

    const dns::resolution res = m.resolver_.resolve(rec.seed);
    rec.dns_result = res.result;
    if (res.result != dns::outcome::a_record) {
      rec.svc = service_class::unresolved;
      return;
    }
    rec.address = res.address;

    const std::size_t g =
        std::min<std::size_t>((rank - 1) / group_size, kRankGroups - 1);
    // Deployment classes are fractions of *all* domains in a group;
    // condition on the A-record funnel stage.
    const double p_quic = quic_rate[g] / a_rate;
    const double p_https_only = https_rate[g] / a_rate;
    const double dice = r.uniform01();
    if (dice < p_quic) {
      rec.svc = service_class::quic;
    } else if (dice < p_quic + p_https_only) {
      rec.svc = service_class::https_only;
    } else {
      rec.svc = service_class::no_tls;
      return;
    }

    if (rec.svc == service_class::quic) {
      // Sample the intended handshake class from the Fig. 13 row, then
      // draw a (chain, behaviour) pair that produces it at common
      // Initial sizes. The actual class is always *measured* by the
      // scanner — borderline chains flip with the Initial size, which
      // is exactly the interdependence §4.1 describes.
      const double* row = kClassMatrix[g];
      const auto cls = r.weighted_index(std::span<const double>{row, 4});
      switch (cls) {
        case 0:  // Amplification
          if (r.chance(0.96)) {
            rec.profile = profile_id::cloudflare;
            rec.behavior = behavior_kind::cloudflare;
          } else {
            const auto& chain = pick_chain(r, kLegacyAmplifierChains);
            rec.profile = chain.id;
            rec.force_rsa_leaf = r.chance(chain.rsa_leaf_fraction);
            rec.behavior = behavior_kind::legacy_amplifier;
            if (r.chance(0.15)) {
              // A few legacy amplifiers front SAN-heavy shared-hosting
              // leaves, producing the 4.5-5.5x tail of Fig. 4.
              rec.cruise_sans =
                  static_cast<std::uint16_t>(40 + r.uniform(0, 160));
            }
          }
          break;
        case 1: {  // Multi-RTT
          const auto& chain = pick_chain(r, kMultiRttChains);
          rec.profile = chain.id;
          rec.force_rsa_leaf = r.chance(chain.rsa_leaf_fraction);
          // Lean servers (no ACK datagram) on small chains sit right at
          // the budget boundary: they flip between Multi-RTT and 1-RTT
          // with the client Initial size (the ±1% drift of Fig. 3) and
          // are the services a §5 Initial-size cache can rescue.
          const bool small_chain = rec.profile == profile_id::le_e1_x2;
          rec.behavior = r.chance(small_chain ? 0.6 : 0.04)
                             ? behavior_kind::standard_lean
                             : behavior_kind::standard_no_coalesce;
          if (r.chance(0.012)) {
            // Cruise-liner leaves (Appendix E) live in shared-hosting
            // multi-RTT chains.
            rec.cruise_sans = static_cast<std::uint16_t>(
                r.pareto(8.0, 220.0, 1.1));
          }
          break;
        }
        case 2:  // RETRY
          rec.profile =
              r.chance(0.5) ? profile_id::cloudflare : profile_id::le_r3;
          rec.behavior = behavior_kind::retry_always;
          break;
        default: {  // 1-RTT
          const auto& chain = pick_chain(r, kOneRttChains);
          rec.profile = chain.id;
          rec.behavior = behavior_kind::compliant_coalesce;
          break;
        }
      }
      // Table 1: 96% of QUIC services accept brotli; 0.05% accept all
      // three algorithms.
      rec.supports_brotli = r.chance(0.96);
      rec.supports_all_algorithms = rec.supports_brotli && r.chance(0.0005);
      // §3.2: certificates differ between HTTPS and QUIC for 3.3%.
      rec.rotated_cert = r.chance(0.033);

      // §4.1 load balancers: encapsulation overhead by popularity.
      const double p_lb = rank <= group_size / 100     ? 0.25
                          : rank <= group_size / 10 * 1 ? 0.12
                                                        : 0.0108;
      if (r.chance(p_lb)) {
        static constexpr std::uint8_t kOverheads[] = {8, 16, 20, 28};
        rec.lb_overhead = kOverheads[r.uniform(0, 3)];
      }
    } else {
      const auto& chain = pick_chain(r, kHttpsChains);
      rec.profile = chain.id;
      rec.force_rsa_leaf = r.chance(chain.rsa_leaf_fraction);
      if (r.chance(0.015)) {
        rec.cruise_sans =
            static_cast<std::uint16_t>(r.pareto(8.0, 320.0, 1.05));
      }
    }

    // Redirect topology for the HTTPS collection pipeline: ~15% of TLS
    // sites redirect to another name (www-canonicalization, vanity
    // domains).
    if (rec.serves_tls() && r.chance(0.15) && rank > 1) {
      rec.redirect_to = static_cast<std::int32_t>(r.uniform(0, rank - 2));
    }
  };

  const std::size_t threads =
      resolved_synth_threads(cfg.synth_threads, cfg.domains);
  if (threads <= 1) {
    for (std::uint32_t i = 0; i < cfg.domains; ++i) {
      synth_record(i);
    }
  } else {
    // Contiguous rank ranges per worker: records are written in place,
    // so no ordering or locking is needed.
    std::vector<std::thread> pool;
    pool.reserve(threads);
    const std::size_t per_worker = (cfg.domains + threads - 1) / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      const auto lo = static_cast<std::uint32_t>(t * per_worker);
      const auto hi = static_cast<std::uint32_t>(
          std::min<std::size_t>(cfg.domains, (t + 1) * per_worker));
      if (lo >= hi) {
        break;
      }
      pool.emplace_back([&synth_record, lo, hi] {
        for (std::uint32_t i = lo; i < hi; ++i) {
          synth_record(i);
        }
      });
    }
    for (auto& worker : pool) {
      worker.join();
    }
  }
  return m;
}

std::size_t model::rank_group(const service_record& r) const {
  const std::size_t group_size =
      std::max<std::size_t>(1, records_.size() / kRankGroups);
  return std::min<std::size_t>((r.rank - 1) / group_size, kRankGroups - 1);
}

x509::chain model::chain_of(const service_record& rec, fetch_protocol proto,
                            x509::pq_profile pq) const {
  if (!rec.serves_tls()) {
    throw config_error("chain_of: record serves no TLS: " + rec.domain);
  }
  // Rotated services re-issued their certificate between the HTTPS scan
  // and the QUIC scan: perturb the issuance stream for QUIC fetches.
  const bool rotate = rec.rotated_cert && proto == fetch_protocol::quic;
  rng r{rotate ? rec.seed ^ 0x0707'0707ULL : rec.seed};

  if (rec.cruise_sans > 0) {
    return eco_.issue_cruise_liner(rec.domain, rec.cruise_sans, r, pq);
  }
  if (rec.profile == profile_id::other) {
    return eco_.issue_other(
        rec.domain, r, {.quic_flavor = rec.serves_quic(), .pq = pq});
  }
  return eco_.issue(eco_.profile(rec.profile), rec.domain, r, pq,
                    rec.force_rsa_leaf
                        ? std::optional{x509::key_algorithm::rsa_2048}
                        : std::nullopt);
}

namespace {

/// The behaviour of a record with `kind` and its compression support
/// (0: none, 1: brotli, 2: all three algorithms).
quic::server_behavior make_behavior(behavior_kind kind,
                                    std::size_t compression) {
  quic::server_behavior b;
  switch (kind) {
    case behavior_kind::cloudflare:
      b = quic::server_behavior::cloudflare();
      break;
    case behavior_kind::legacy_amplifier:
      b = quic::server_behavior::compliant();
      b.policy = quic::amplification_policy::min_initial_only;
      break;
    case behavior_kind::standard_no_coalesce:
      b = quic::server_behavior::standard_no_coalesce();
      break;
    case behavior_kind::standard_lean:
      b = quic::server_behavior::standard_no_coalesce();
      b.ack_in_separate_datagram = false;
      break;
    case behavior_kind::compliant_coalesce:
      b = quic::server_behavior::compliant();
      break;
    case behavior_kind::retry_always:
      b = quic::server_behavior::retry_always();
      break;
  }
  b.compression_support.clear();
  if (compression == 2) {
    b.compression_support = {compress::algorithm::brotli,
                             compress::algorithm::zlib,
                             compress::algorithm::zstd};
  } else if (compression == 1) {
    b.compression_support = {compress::algorithm::brotli};
  }
  return b;
}

}  // namespace

const quic::server_behavior& model::behavior_of(
    const service_record& rec) const {
  // Six kinds times three compression supports: built once, so a probe
  // copies no algorithm list.
  constexpr std::size_t kKinds =
      static_cast<std::size_t>(behavior_kind::retry_always) + 1;
  static const auto table = [] {
    std::array<std::array<quic::server_behavior, 3>, kKinds> t;
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      for (std::size_t compression = 0; compression < 3; ++compression) {
        t[kind][compression] =
            make_behavior(static_cast<behavior_kind>(kind), compression);
      }
    }
    return t;
  }();
  const auto kind = static_cast<std::size_t>(rec.behavior);
  // A kind added after retry_always would have no row.
  CERTQUIC_ASSERT(kind < kKinds, "behavior_kind past the behaviour table");
  const std::size_t compression =
      rec.supports_all_algorithms ? 2 : rec.supports_brotli ? 1 : 0;
  return table[kind][compression];
}

std::vector<meta_host> model::meta_pop(bool post_disclosure) const {
  // Host octets present in the Fig. 11 scans of the /24.
  std::vector<int> octets;
  for (int i = 1; i <= 43; ++i) {
    octets.push_back(i);
  }
  for (int i = 49; i <= 60; ++i) {
    octets.push_back(i);
  }
  octets.push_back(63);
  for (int i = 128; i <= 132; ++i) {
    octets.push_back(i);
  }
  for (int i = 158; i <= 164; ++i) {
    octets.push_back(i);
  }
  for (int i = 167; i <= 169; ++i) {
    octets.push_back(i);
  }
  octets.push_back(172);
  octets.push_back(174);
  octets.push_back(182);
  octets.push_back(183);

  std::vector<meta_host> hosts;
  hosts.reserve(octets.size());
  rng r{seed_ ^ 0x3E7A};
  for (const int octet : octets) {
    meta_host h;
    h.address = net::ipv4::of(157, 240, 229, static_cast<std::uint8_t>(octet));
    h.seed = r.next();
    h.serves_quic = true;
    if (octet == 35 || octet == 36) {
      // §4.3 group 2: facebook front-ends, ~7 kB responses (~5x).
      h.services = "facebook.com, messenger.com, fbcdn.net";
      h.sni = "facebook.com";
      h.retransmissions = 1;
      h.extra_sans = 4;
    } else if (octet == 60 || octet == 63) {
      // §4.3 group 3: instagram/whatsapp, ~35 kB responses (~28x).
      h.services = "whatsapp.net, instagram.com, igcdn.com";
      h.sni = "instagram.com";
      h.retransmissions = 7;
      h.extra_sans = 14;
    } else if (octet % 17 == 0) {
      // §4.3 group 1: no QUIC HTTP/3 service on this host.
      h.services = "(no QUIC service)";
      h.sni = "";
      h.serves_quic = false;
    } else if (octet >= 128) {
      h.services = "instagram.com, igcdn.com";
      h.sni = "instagram.com";
      // Pre-disclosure variance across PoP hosts (Fig. 11a): deep
      // retransmission schedules and big SAN-laden leaves, up to ~45x
      // at the telescope.
      h.retransmissions = 6 + r.uniform(0, 3);  // 6..9
      h.extra_sans = static_cast<std::uint16_t>(30 + r.uniform(0, 70));
    } else {
      h.services = "facebook.com, messenger.com, fbcdn.net";
      h.sni = "facebook.com";
      h.retransmissions = 1 + r.uniform(0, 3);  // 1..4
      h.extra_sans = static_cast<std::uint16_t>(2 + r.uniform(0, 6));
    }
    if (post_disclosure && h.serves_quic) {
      // October 2022 fix: retransmissions capped and configurations
      // homogenised; responses land at ~5x mean (Fig. 11b) — still
      // above the RFC 9000 limit.
      h.retransmissions = 1;
      h.extra_sans = 0;
    }
    hosts.push_back(std::move(h));
  }
  return hosts;
}

x509::chain model::meta_chain(const meta_host& h) const {
  rng r{h.seed};
  ca::chain_profile profile = eco_.profile(profile_id::digicert);
  profile.leaf.key_alg = x509::key_algorithm::ecdsa_p256;
  profile.leaf.rsa_mix = 0.0;
  profile.leaf.min_sans = 1 + h.extra_sans;
  profile.leaf.max_sans = 1 + h.extra_sans;
  return eco_.issue(profile, h.sni.empty() ? "meta.example" : h.sni, r);
}

quic::server_behavior model::meta_behavior(const meta_host& h) const {
  quic::server_behavior b =
      quic::server_behavior::meta_pre_disclosure(h.retransmissions);
  return b;
}

}  // namespace certquic::internet
