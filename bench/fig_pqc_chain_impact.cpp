// PQC what-if study: the chain-size (Fig. 6), amplification (Fig. 4)
// and handshake-class analyses re-run under post-quantum chain
// profiles (Chou & Cao: ML-DSA chains vs the QUIC amplification
// budgets). The classical slice reproduces the published numbers;
// pqc_leaf swaps the leaf key for ML-DSA-44, pqc_full serves ML-DSA
// keys and signatures on every certificate.
#include "common.hpp"
#include "core/pqc_study.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace certquic;
  bench::header("PQC study",
                "post-quantum chain profiles vs QUIC handshake performance");

  const auto cfg = bench::population_config();
  const auto& model = bench::shared_model();
  core::pqc_options opt;
  opt.max_services = bench::sample_cap(4000);
  opt.max_corpus = bench::sample_cap(4000);
  const auto study = core::run_pqc_study(model, opt);

  for (const auto& slice : study.slices) {
    bench::print_cdf(
        ("chain sizes [B], QUIC services — " + x509::to_string(slice.profile))
            .c_str(),
        slice.quic_chain_sizes, 9);
  }

  std::printf("\n");
  text_table sizes({"profile", "QUIC med [B]", "HTTPS med [B]", "QUIC max [B]",
                    "> 3x1357", "amp med", "amp p99"});
  for (const auto& slice : study.slices) {
    sizes.add_row(
        {x509::to_string(slice.profile),
         fixed(slice.quic_chain_sizes.median(), 0),
         fixed(slice.https_chain_sizes.median(), 0),
         fixed(slice.quic_chain_sizes.max(), 0),
         pct(slice.over_amp_limit, 1),
         slice.amplification.empty() ? std::string("-")
                                     : fixed(slice.amplification.median(), 2),
         slice.amplification.empty()
             ? std::string("-")
             : fixed(slice.amplification.quantile(0.99), 2)});
  }
  std::printf("%s", sizes.render().c_str());

  std::printf("\n");
  text_table classes({"profile", "1-RTT", "Multi-RTT", "Amplification",
                      "RETRY", "failed", "d 1-RTT", "d Multi-RTT",
                      "d failed"});
  for (const auto& slice : study.slices) {
    auto delta = [&](scan::handshake_class c) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%+lld",
                    slice.class_delta(study.slices[0], c));
      return std::string(buf);
    };
    classes.add_row(
        {x509::to_string(slice.profile),
         std::to_string(slice.count(scan::handshake_class::one_rtt)),
         std::to_string(slice.count(scan::handshake_class::multi_rtt)),
         std::to_string(slice.count(scan::handshake_class::amplification)),
         std::to_string(slice.count(scan::handshake_class::retry)),
         std::to_string(slice.count(scan::handshake_class::unreachable)),
         delta(scan::handshake_class::one_rtt),
         delta(scan::handshake_class::multi_rtt),
         delta(scan::handshake_class::unreachable)});
  }
  std::printf("%s", classes.render().c_str());

  std::printf(
      "\nChou & Cao: post-quantum chains overshoot the QUIC amplification "
      "budgets that this paper's\nclassical chains already strain; every "
      "borderline 1-RTT service goes multi-RTT, and the\n3x1357 limit is "
      "exceeded by most chains once intermediates carry ML-DSA "
      "signatures.\n");
  bench::footnote_scale(cfg);
  return 0;
}
