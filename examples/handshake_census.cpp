// The full Figure-10 measurement pipeline, end to end:
//   1. DNS resolution funnel          (§3.1, dig @8.8.8.8)
//   2. HTTPS certificate collection   (§3.1, libcurl + libxml2)
//   3. QUIC handshake classification  (§3.2, quicreach)
//   4. QUIC certificate cross-check   (§3.2, QScanner)
//   5. merged report                  (§4.1)
#include <cstdio>

#include "core/census.hpp"
#include "core/funnel.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace certquic;

  const internet::config cfg{.domains = 10000, .seed = 42};
  const auto model = internet::model::generate(cfg);

  // Stages 1-2 + 4: resolution, collection, consistency sanitization.
  const auto funnel = core::run_funnel(model, {.consistency_sample = 200});
  std::printf("== measurement funnel (paper §3.1/§3.2, 1M names) ==\n");
  text_table funnel_table({"stage", "names", "share"});
  const auto domains = static_cast<double>(funnel.domains);
  auto add = [&](const char* stage, std::size_t n) {
    funnel_table.add_row({stage, with_commas(static_cast<long long>(n)),
                          pct(static_cast<double>(n) / domains)});
  };
  add("scanned", funnel.domains);
  add("A record", funnel.dns_outcomes[0]);
  add("SERVFAIL",
      funnel.dns_outcomes[static_cast<int>(dns::outcome::servfail)]);
  add("NXDOMAIN",
      funnel.dns_outcomes[static_cast<int>(dns::outcome::nxdomain)]);
  add("HTTPS reachable", funnel.collection.https_reachable);
  add("unique certificates", funnel.collection.unique_certificates);
  add("QUIC services", funnel.quic_services);
  std::printf("%s", funnel_table.render().c_str());
  std::printf(
      "redirects followed: %zu; certificate consistent across QUIC/HTTPS: "
      "%.1f%% (paper: 96.7%%)\n\n",
      funnel.collection.redirects_followed,
      funnel.consistency_share() * 100.0);

  // Stage 3 + 5: classification census at the default Initial size.
  core::census_options opt;
  opt.initial_size = 1362;
  opt.max_services = 1500;
  const auto census = core::run_census(model, opt);
  std::printf("== handshake census @ Initial=1362 (paper §4.1) ==\n");
  text_table census_table({"class", "count", "share", "paper"});
  static const std::pair<scan::handshake_class, const char*> kRows[] = {
      {scan::handshake_class::amplification, "61%"},
      {scan::handshake_class::multi_rtt, "38%"},
      {scan::handshake_class::retry, "0.07%"},
      {scan::handshake_class::one_rtt, "0.75%"},
  };
  for (const auto& [cls, paper] : kRows) {
    census_table.add_row({scan::to_string(cls),
                          std::to_string(census.count(cls)),
                          pct(census.share(cls)), paper});
  }
  std::printf("%s", census_table.render().c_str());
  std::printf(
      "\n%.1f%% of amplifying handshakes terminate at Cloudflare-profile "
      "servers (paper: 96%%).\n",
      census.amplifying == 0
          ? 0.0
          : 100.0 * static_cast<double>(census.amplifying_cloudflare) /
                static_cast<double>(census.amplifying));

  // Client-behaviour axis ("ReACKed QUICer"): the same services probed
  // under three ACK policies — matched per-probe randomness, so every
  // delta isolates the client behaviour.
  const auto sweep = core::run_ack_sweep(model, 600);
  std::printf("\n== client ACK-policy sweep (ReACKed QUICer) ==\n");
  text_table ack_table({"client", "1-RTT", "Multi-RTT", "Amplification",
                        "unreachable", "completed", "median hs"});
  for (const auto& slice : sweep.slices) {
    ack_table.add_row(
        {quic::to_string(slice.policy),
         std::to_string(slice.count(scan::handshake_class::one_rtt)),
         std::to_string(slice.count(scan::handshake_class::multi_rtt)),
         std::to_string(slice.count(scan::handshake_class::amplification)),
         std::to_string(slice.count(scan::handshake_class::unreachable)),
         std::to_string(slice.completed()),
         slice.handshake_ms.empty()
             ? std::string("-")
             : fixed(slice.handshake_ms.median(), 1) + " ms"});
  }
  std::printf("%s", ack_table.render().c_str());
  const auto& delayed = sweep.slices[0];
  const auto& instant = sweep.slices[1];
  std::printf(
      "instant ACKs change no handshake class (multi-RTT delta %+lld) but "
      "shave the mean completed\nhandshake from %.2f ms to %.2f ms; a "
      "silent client strands every multi-RTT service\n(delta %+lld "
      "unreachable).\n",
      instant.class_delta(delayed, scan::handshake_class::multi_rtt),
      delayed.handshake_ms.empty() ? 0.0 : delayed.handshake_ms.mean(),
      instant.handshake_ms.empty() ? 0.0 : instant.handshake_ms.mean(),
      sweep.slices[2].class_delta(delayed,
                                  scan::handshake_class::unreachable));
  return 0;
}
