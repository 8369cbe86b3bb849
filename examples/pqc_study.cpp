// Chain-profile sweep walkthrough: what happens to the handshake
// census when the Web's certificate chains go post-quantum (the
// Chou & Cao what-if on top of this paper's datasets).
//
// The sweep is one probe_plan with three variants — one per chain
// profile — so every service is probed under matched randomness and
// the per-class deltas isolate the chain-size effect. See
// docs/SCENARIOS.md for the bench twin (fig_pqc_chain_impact) and
// docs/ARCHITECTURE.md for the axis itself.
#include <cstdio>

#include "core/pqc_study.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace certquic;

  const internet::config cfg{.domains = 8000, .seed = 42};
  const auto model = internet::model::generate(cfg);

  core::pqc_options opt;
  opt.max_services = 600;
  opt.max_corpus = 1200;
  const auto study = core::run_pqc_study(model, opt);

  std::printf("== chain sizes under the PQC profiles (corpus pass) ==\n");
  text_table sizes({"profile", "QUIC median", "HTTPS-only median",
                    "chains > 3x1357"});
  for (const auto& slice : study.slices) {
    sizes.add_row({x509::to_string(slice.profile),
                   fixed(slice.quic_chain_sizes.median(), 0) + " B",
                   fixed(slice.https_chain_sizes.median(), 0) + " B",
                   pct(slice.over_amp_limit, 1)});
  }
  std::printf("%s", sizes.render().c_str());

  std::printf("\n== handshake classes under the PQC profiles (census pass, "
              "Initial=%zu) ==\n",
              study.initial_size);
  text_table classes({"profile", "1-RTT", "Multi-RTT", "Amplification",
                      "failed", "median amp"});
  for (const auto& slice : study.slices) {
    classes.add_row(
        {x509::to_string(slice.profile),
         std::to_string(slice.count(scan::handshake_class::one_rtt)),
         std::to_string(slice.count(scan::handshake_class::multi_rtt)),
         std::to_string(slice.count(scan::handshake_class::amplification)),
         std::to_string(slice.count(scan::handshake_class::unreachable)),
         slice.amplification.empty()
             ? std::string("-")
             : fixed(slice.amplification.median(), 2) + "x"});
  }
  std::printf("%s", classes.render().c_str());

  const auto& full = study.slice(x509::pq_profile::pqc_full);
  std::printf(
      "\nGoing fully post-quantum moves %+lld handshakes out of 1-RTT and "
      "%+lld into multi-RTT\n(deltas vs the classical baseline of %zu "
      "probes); %.1f%% of all chains then exceed the\n3x1357-byte "
      "amplification budget.\n",
      full.class_delta(study.slices[0], scan::handshake_class::one_rtt),
      full.class_delta(study.slices[0], scan::handshake_class::multi_rtt),
      study.slices[0].probed, full.over_amp_limit * 100.0);
  return 0;
}
