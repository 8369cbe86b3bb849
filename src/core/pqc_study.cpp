#include "core/pqc_study.hpp"

#include <utility>

#include "core/certificates.hpp"
#include "engine/probe_plan.hpp"
#include "util/errors.hpp"

namespace certquic::core {

const pqc_profile_slice& pqc_study_result::slice(x509::pq_profile p) const {
  for (const pqc_profile_slice& s : slices) {
    if (s.profile == p) {
      return s;
    }
  }
  throw config_error("pqc_study_result: no slice for profile " +
                     x509::to_string(p));
}

pqc_study_result run_pqc_study(const internet::model& m,
                               const pqc_options& opt,
                               const engine::options& exec) {
  const auto& profiles = x509::all_pq_profiles();
  pqc_study_result out;
  out.initial_size = opt.initial_size;
  out.slices.resize(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    out.slices[p].profile = profiles[p];
  }

  // --- Corpus pass: size every sampled TLS chain under every profile.
  // One parallel_ordered unit materializes a record's three chains, so
  // the per-record work (the hot path) shards across the pool while
  // the ordered consumer keeps each slice's sample order — and thus
  // its CDF — identical to a serial walk. The classical adds happen in
  // the same order as analyze_corpus on the same sample, which is what
  // the fig06-equivalence tier-1 check pins down.
  const std::vector<std::uint32_t> sample = engine::sample_indices(
      m, engine::service_filter::tls, opt.max_corpus);
  for (pqc_profile_slice& slice : out.slices) {
    slice.quic_chain_sizes.reserve(sample.size());
    slice.https_chain_sizes.reserve(sample.size());
  }
  struct sized_record {
    std::array<std::size_t, 3> wire_size{};
    bool quic = false;
  };
  engine::parallel_ordered(
      sample.size(), exec,
      [&](std::size_t i) {
        const auto& rec = m.records()[sample[i]];
        sized_record sized;
        sized.quic = rec.serves_quic();
        for (std::size_t p = 0; p < profiles.size(); ++p) {
          sized.wire_size[p] =
              m.chain_of(rec, internet::fetch_protocol::https, profiles[p])
                  .wire_size();
        }
        return sized;
      },
      [&](std::size_t, sized_record&& sized) {
        for (std::size_t p = 0; p < profiles.size(); ++p) {
          (sized.quic ? out.slices[p].quic_chain_sizes
                      : out.slices[p].https_chain_sizes)
              .add(static_cast<double>(sized.wire_size[p]));
        }
      });
  for (pqc_profile_slice& slice : out.slices) {
    // Shared with analyze_corpus, so the classical slice matches
    // all_chains_over_4071 bit-for-bit by construction.
    slice.over_amp_limit = share_over_amp_limit(slice.quic_chain_sizes,
                                                slice.https_chain_sizes);
    slice.quic_chain_sizes.finalize();
    slice.https_chain_sizes.finalize();
  }

  // --- Census pass: the engine sweep over the QUIC population, one
  // variant per profile with matched per-probe randomness.
  engine::probe_plan plan;
  plan.max_services = opt.max_services;
  plan.sweep_chain_profiles(opt.initial_size);

  per_variant_sink sink{
      out.slices,
      [](pqc_profile_slice& slice, const engine::probe_record& pr) {
        if (pr.result.obs.handshake_complete) {
          slice.amplification.add(pr.result.obs.first_burst_amplification());
        }
      },
      {&pqc_profile_slice::amplification}};
  engine::executor{m, exec}.run(plan, sink);
  return out;
}

}  // namespace certquic::core
