#include "core/compression_study.hpp"

#include "core/class_mix.hpp"
#include "engine/engine.hpp"
#include "tls/handshake.hpp"

namespace certquic::core {
namespace {

constexpr double kLimit = 3.0 * 1357.0;

/// Per-chain synthetic compression outcome, computed on the pool.
struct chain_compression {
  std::size_t plain_size = 0;
  std::array<std::size_t, 3> compressed_size{};  // brotli/zlib/zstd
};

/// The in-the-wild probes' class mix plus their support counts.
struct wild_mix : class_mix {
  std::size_t brotli = 0;
  std::size_t all_three = 0;
};

/// Folds compression-offering probes into the "in the wild" rates.
struct wild_fold {
  compression_result& out;

  void operator()(wild_mix& mix, const engine::probe_record& pr) const {
    mix.brotli += pr.record.supports_brotli ? 1 : 0;
    mix.all_three += pr.record.supports_all_algorithms ? 1 : 0;
    const quic::observation& obs = pr.result.obs;
    if (obs.handshake_complete && obs.compression_used &&
        obs.certificate_uncompressed_size > 0) {
      out.wild_savings.add(
          1.0 - static_cast<double>(obs.certificate_msg_size) /
                    static_cast<double>(obs.certificate_uncompressed_size));
    }
  }

  void finish(const wild_mix& mix) const {
    if (mix.probed == 0) {
      return;
    }
    out.support_brotli =
        static_cast<double>(mix.brotli) / static_cast<double>(mix.probed);
    out.support_all_three =
        static_cast<double>(mix.all_three) / static_cast<double>(mix.probed);
  }
};

}  // namespace

compression_result run_compression_study(const internet::model& m,
                                         const compression_options& opt,
                                         const engine::options& exec) {
  compression_result out;
  const bytes& dict = m.compression_dictionary();
  const compress::codec codecs[3] = {
      compress::codec{compress::algorithm::brotli, dict},
      compress::codec{compress::algorithm::zlib, dict},
      compress::codec{compress::algorithm::zstd, dict},
  };

  // ---- Synthetic experiment over collected chains -----------------------
  // One up-front deterministic sample, then chain materialization and
  // compression sharded across the pool; the ordered consumer keeps the
  // aggregates bit-identical to the serial walk.
  const std::vector<std::uint32_t> chain_sample = engine::sample_indices(
      m, engine::service_filter::tls, opt.max_chains);

  std::size_t under_limit = 0;
  std::size_t under_limit_plain = 0;
  std::size_t chains = 0;
  for (auto& savings : out.synthetic_savings) {
    savings.reserve(chain_sample.size());
  }
  engine::parallel_ordered(
      chain_sample.size(), exec,
      [&](std::size_t i) {
        const auto& rec = m.records()[chain_sample[i]];
        const bytes cert_msg = tls::encode_certificate(
            m.chain_of(rec, internet::fetch_protocol::https));
        chain_compression result;
        result.plain_size = cert_msg.size();
        for (int a = 0; a < 3; ++a) {
          result.compressed_size[static_cast<std::size_t>(a)] =
              codecs[a].compress(cert_msg).size();
        }
        return result;
      },
      [&](std::size_t, chain_compression&& result) {
        ++chains;
        under_limit_plain +=
            static_cast<double>(result.plain_size) <= kLimit ? 1 : 0;
        for (std::size_t a = 0; a < 3; ++a) {
          const double saving =
              1.0 - static_cast<double>(result.compressed_size[a]) /
                        static_cast<double>(result.plain_size);
          out.synthetic_savings[a].add(saving);
          if (a == 0) {
            under_limit +=
                static_cast<double>(result.compressed_size[a]) <= kLimit ? 1
                                                                         : 0;
          }
        }
      });
  if (chains > 0) {
    out.under_limit_compressed =
        static_cast<double>(under_limit) / static_cast<double>(chains);
    out.under_limit_uncompressed =
        static_cast<double>(under_limit_plain) / static_cast<double>(chains);
  }

  // ---- In-the-wild probe: offer all three algorithms --------------------
  engine::probe_variant variant;
  variant.initial_size = 1250;  // Chromium-like client (Table 1)
  variant.offer_compression = {compress::algorithm::brotli,
                               compress::algorithm::zlib,
                               compress::algorithm::zstd};
  const engine::probe_plan plan =
      engine::probe_plan::single(std::move(variant), opt.max_probes);
  wild_mix mix;
  per_variant_sink sink{mix, wild_fold{out}};
  engine::executor{m, exec}.run(plan, sink);
  return out;
}

}  // namespace certquic::core
