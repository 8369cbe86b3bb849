#include "core/certificates.hpp"

#include <algorithm>

#include "core/serial_set.hpp"
#include "engine/engine.hpp"
#include "util/errors.hpp"

namespace certquic::core {
namespace {

std::size_t alg_index(x509::key_algorithm a) {
  switch (a) {
    case x509::key_algorithm::rsa_2048:
      return 0;
    case x509::key_algorithm::rsa_4096:
      return 1;
    case x509::key_algorithm::ecdsa_p256:
      return 2;
    case x509::key_algorithm::ecdsa_p384:
      return 3;
    case x509::key_algorithm::mldsa_44:
      return 4;
    case x509::key_algorithm::mldsa_65:
      return 5;
    case x509::key_algorithm::mldsa_87:
      return 6;
  }
  return 0;
}

void account_fields(const cert_facts& cert,
                    std::array<stats::summary, 6>& sums) {
  const auto& s = cert.sizes;
  sums[0].add(static_cast<double>(s.subject));
  sums[1].add(static_cast<double>(s.issuer));
  sums[2].add(static_cast<double>(s.public_key_info));
  sums[3].add(static_cast<double>(s.extensions));
  sums[4].add(static_cast<double>(s.signature));
  sums[5].add(static_cast<double>(s.other()));
}

struct profile_accumulator {
  std::size_t count = 0;
  stats::sample_set leaf_sizes;
  std::vector<std::size_t> parent_sizes;
};

/// Fig. 7 accumulators indexed by ca::profile_id.
using profile_table = std::array<profile_accumulator, ca::kNamedProfiles>;

}  // namespace

chain_facts reduce(const x509::chain& chain) {
  if (chain.depth() > kMaxChainDepth) {
    throw config_error("chain of " + std::to_string(chain.depth()) +
                       " certificates exceeds the corpus bound of " +
                       std::to_string(kMaxChainDepth));
  }
  chain_facts out;
  out.size = chain.wire_size();
  out.leaf_san_bytes = chain.leaf().san_bytes();
  chain.for_each([&out](const x509::certificate& cert) {
    cert_facts& f = out.certs[out.depth++];
    f.sizes = cert.sizes();
    f.key_alg = cert.key_alg();
    f.serial = cert.serial();
  });
  return out;
}

double share_over_amp_limit(const stats::sample_set& quic,
                            const stats::sample_set& https) {
  const std::size_t all = quic.size() + https.size();
  if (all == 0) {
    return 0.0;
  }
  const double over =
      quic.fraction_above(kAmpLimitBytes) * static_cast<double>(quic.size()) +
      https.fraction_above(kAmpLimitBytes) * static_cast<double>(https.size());
  return over / static_cast<double>(all);
}

const std::array<std::string, kAlgClasses>& alg_class_names() {
  static const std::array<std::string, kAlgClasses> names = {
      "RSA-2048",  "RSA-4096",  "ECDSA-256", "ECDSA-384",
      "ML-DSA-44", "ML-DSA-65", "ML-DSA-87"};
  return names;
}

corpus_result analyze_corpus(const internet::model& m,
                             const corpus_options& opt,
                             const engine::options& exec) {
  corpus_result out;

  // One up-front deterministic sample (shared striding rule); chain
  // materialization is the hot path and shards across the engine pool,
  // while the ordered consumer below aggregates bit-identically to the
  // old interleaved walk.
  const std::vector<std::uint32_t> sample = engine::sample_indices(
      m, engine::service_filter::tls, opt.max_services);

  profile_table quic_profiles;
  profile_table https_profiles;
  serial_set seen_nonleaf_serials[2];
  std::size_t quic_services = 0;
  std::size_t https_services = 0;
  /// (leaf size, SAN share) per sampled QUIC service, for the Fig. 14
  /// quadrant pass — recorded here so the corpus is walked only once.
  std::vector<std::pair<std::size_t, double>> quic_leaves;

  out.quic_chain_sizes.reserve(sample.size());
  out.https_chain_sizes.reserve(sample.size());
  // Every chain carries at least a leaf and one parent, so the Fig. 2b
  // field sets see >= 2 adds per sampled service; reserving for the
  // common two-certificate depth removes almost all growth churn.
  for (stats::sample_set* fields :
       {&out.field_subject, &out.field_issuer, &out.field_spki,
        &out.field_extensions, &out.field_signature}) {
    fields->reserve(2 * sample.size());
  }
  out.san_shares.reserve(sample.size());
  quic_leaves.reserve(sample.size());

  engine::parallel_ordered(
      sample.size(), exec,
      [&](std::size_t i) {
        return reduce(internet::fetch_chain(
            m, opt.chains, m.records()[sample[i]],
            internet::fetch_protocol::https, opt.profile));
      },
      [&](std::size_t i, chain_facts&& chain) {
        const auto& rec = m.records()[sample[i]];
        const bool is_quic = rec.serves_quic();
        (is_quic ? quic_services : https_services) += 1;
        const std::size_t chain_size = chain.size;
        (is_quic ? out.quic_chain_sizes : out.https_chain_sizes)
            .add(static_cast<double>(chain_size));

        // Fig. 2b field sizes across every certificate in the corpus.
        for (const cert_facts& cert : chain.all()) {
          const auto& s = cert.sizes;
          out.field_subject.add(static_cast<double>(s.subject));
          out.field_issuer.add(static_cast<double>(s.issuer));
          out.field_spki.add(static_cast<double>(s.public_key_info));
          out.field_extensions.add(static_cast<double>(s.extensions));
          out.field_signature.add(static_cast<double>(s.signature));
        }

        // Fig. 8 (QUIC only): field means by chain-size and role.
        if (is_quic) {
          const std::size_t size_class = chain_size > 4000 ? 1 : 0;
          account_fields(chain.leaf(), out.field_means[size_class][0]);
          for (const cert_facts& parent : chain.parents()) {
            account_fields(parent, out.field_means[size_class][1]);
          }
        }

        // Table 2: unique certificates per corpus side, keyed on the
        // raw 16-byte serial every certificate is issued with.
        const std::size_t side = is_quic ? 0 : 1;
        ++out.alg_counts[side][0][alg_index(chain.leaf().key_alg)];
        for (const cert_facts& parent : chain.parents()) {
          if (seen_nonleaf_serials[side].insert(parent.serial)) {
            ++out.alg_counts[side][1][alg_index(parent.key_alg)];
          }
        }

        // Fig. 7 accumulation for named profiles.
        if (rec.profile != ca::profile_id::other && rec.cruise_sans == 0) {
          auto& acc = (is_quic ? quic_profiles : https_profiles)
              [static_cast<std::size_t>(rec.profile)];
          if (acc.count == 0) {
            for (const cert_facts& parent : chain.parents()) {
              acc.parent_sizes.push_back(parent.sizes.total);
            }
          }
          ++acc.count;
          acc.leaf_sizes.add(static_cast<double>(chain.leaf().sizes.total));
        }

        // Fig. 14 (QUIC leaves): SAN byte share vs leaf size.
        if (is_quic) {
          const std::size_t leaf_size = chain.leaf().sizes.total;
          const double share =
              leaf_size == 0 ? 0.0
                             : static_cast<double>(chain.leaf_san_bytes) /
                                   static_cast<double>(leaf_size);
          out.san_shares.add(share);
          quic_leaves.emplace_back(leaf_size, share);
        }
      });

  // "35% of all certificate chains exceed even the larger of the two
  // common amplification limits (3x1357)".
  out.all_chains_over_4071 =
      share_over_amp_limit(out.quic_chain_sizes, out.https_chain_sizes);

  // Fig. 7 rows: top-10 by share, largest first; equal shares in
  // printable-id order.
  const auto& eco = m.ecosystem();
  auto build_rows = [&eco](const profile_table& profiles,
                           std::size_t corpus_size,
                           std::vector<chain_row>& rows, double& coverage) {
    std::vector<std::size_t> ordered;  // ids of the profiles seen
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      if (profiles[i].count > 0) {
        ordered.push_back(i);
      }
    }
    const auto printable = [](std::size_t i) {
      return ca::to_string(static_cast<ca::profile_id>(i));
    };
    std::sort(ordered.begin(), ordered.end(),
              [&](std::size_t a, std::size_t b) {
                if (profiles[a].count != profiles[b].count) {
                  return profiles[a].count > profiles[b].count;
                }
                return printable(a) < printable(b);
              });
    double covered = 0.0;
    for (const std::size_t i : ordered) {
      if (rows.size() >= 10) {
        break;
      }
      const profile_accumulator& acc = profiles[i];
      chain_row row;
      row.display = eco.profiles()[i].display;
      row.parent_sizes = acc.parent_sizes;
      row.median_leaf = static_cast<std::size_t>(acc.leaf_sizes.median());
      row.max_leaf = static_cast<std::size_t>(acc.leaf_sizes.max());
      row.share = corpus_size == 0 ? 0.0
                                   : static_cast<double>(acc.count) /
                                         static_cast<double>(corpus_size);
      covered += row.share;
      rows.push_back(std::move(row));
    }
    coverage = covered;
  };
  build_rows(quic_profiles, quic_services, out.quic_rows,
             out.quic_top10_coverage);
  build_rows(https_profiles, https_services, out.https_rows,
             out.https_top10_coverage);

  // Fig. 14 quadrants relative to the p99 SAN-share line and the
  // 3x1357 size threshold (the paper reports 99% / 0.9% / 0.1% / 0%).
  if (!out.san_shares.empty()) {
    out.san_share_p99 = out.san_shares.quantile(0.99);
  }
  // The quadrants are re-derived from the leaf sizes and shares stored
  // during the single corpus walk — no second materialization pass.
  for (const auto& [leaf_size, share] : quic_leaves) {
    const bool high = share >= out.san_share_p99;
    const bool large = leaf_size > 3 * 1357;
    if (large && high) {
      ++out.quadrant_large_high;
    } else if (large) {
      ++out.quadrant_large_low;
    } else if (high) {
      ++out.quadrant_small_high;
    } else {
      ++out.quadrant_small_low;
    }
  }
  return out;
}

}  // namespace certquic::core
