#include "figures.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/amplification_study.hpp"
#include "core/browsers.hpp"
#include "core/census.hpp"
#include "core/certificates.hpp"
#include "core/compression_study.hpp"
#include "core/policy_study.hpp"
#include "core/pqc_study.hpp"
#include "core/ttfb_study.hpp"
#include "internet/model.hpp"
#include "scan/classify.hpp"
#include "service/census_service.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"
#include "util/rss_meter.hpp"
#include "util/text_table.hpp"

namespace certquic::figures {

std::uint64_t parse_count(std::string_view text, std::string_view name) {
  const char* const last = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::result_out_of_range) {
    throw usage_error(std::string(name) + ": count overflows: '" +
                      std::string(text) + "'");
  }
  if (text.empty() || ec != std::errc{} || end != last) {
    throw usage_error(std::string(name) + ": not a decimal count: '" +
                      std::string(text) + "'");
  }
  return value;
}

store_dir::store_dir(std::string_view tag, std::string dir)
    : path_(std::move(dir)), temporary_(path_.empty()) {
  if (temporary_) {
    path_ = (std::filesystem::temp_directory_path() /
             ("certquic_" + std::string(tag) + "_" +
              std::to_string(::getpid())))
                .string();
  }
}

store_dir::~store_dir() {
  if (temporary_) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
}

namespace {

/// An unset or empty knob takes `fallback`.
std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return static_cast<std::size_t>(parse_count(value, name));
}

internet::config population_config() {
  internet::config cfg;
  cfg.domains = env_size("CERTQUIC_DOMAINS", 30000);
  cfg.seed = env_size("CERTQUIC_SEED", 42);
  return cfg;
}

/// The process-wide population, built once from the knobs.
const internet::model& shared_model() {
  static const internet::model model =
      internet::model::generate(population_config());
  return model;
}

std::size_t sample_cap(std::size_t fallback) {
  return env_size("CERTQUIC_SAMPLE", fallback);
}

void header(const char* id, const char* title) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

void footnote_scale(const internet::config& cfg) {
  std::printf("\n[population: %zu domains, seed %llu — paper scanned 1M; "
              "counts scale linearly, shares are comparable]\n",
              cfg.domains, static_cast<unsigned long long>(cfg.seed));
}

/// Prints an empirical CDF as aligned rows of (x, F(x)).
void print_cdf(const char* label, const stats::sample_set& samples,
               std::size_t points = 11, int x_digits = 0) {
  std::printf("%s (n=%zu)\n", label, samples.size());
  if (samples.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  for (const auto& point : samples.cdf_series(points)) {
    std::printf("  F(%12s) = %5.1f%%\n", fixed(point.x, x_digits).c_str(),
                point.f * 100.0);
  }
}

/// "[first, past-last)" ranks of group `g`, with the group size
/// model::rank_group uses: the last group absorbs the remainder, and a
/// group past the population is an empty range.
std::string rank_group_label(const internet::model& m, std::size_t g) {
  constexpr std::size_t kGroups = internet::model::kRankGroups;
  const std::size_t n = m.records().size();
  const std::size_t size = std::max<std::size_t>(1, n / kGroups);
  const std::size_t lo = std::min(g * size, n);
  const std::size_t hi = g + 1 == kGroups ? n : std::min((g + 1) * size, n);
  return "[" + std::to_string(lo + 1) + ", " + std::to_string(hi + 1) + ")";
}

// Figure 2(b): CDF of X.509 certificate field sizes (subject, issuer,
// SubjectPublicKeyInfo, extensions, signature) across the corpus.
int fig02_cert_field_sizes() {
  header("Figure 2(b)", "X.509 certificate field size distribution");

  const auto cfg = population_config();
  const auto& model = shared_model();
  const auto corpus =
      core::analyze_corpus(model, {.max_services = sample_cap(6000)});

  print_cdf("Subject", corpus.field_subject);
  print_cdf("Issuer", corpus.field_issuer);
  print_cdf("SubjectPublicKeyInfo", corpus.field_spki);
  print_cdf("Extensions", corpus.field_extensions);
  print_cdf("Signature", corpus.field_signature);

  std::printf(
      "\nPaper: extensions, then signature and public key, consume the "
      "most certificate bytes.\n"
      "Measured medians [B]: subject=%.0f issuer=%.0f spki=%.0f "
      "extensions=%.0f signature=%.0f\n",
      corpus.field_subject.median(), corpus.field_issuer.median(),
      corpus.field_spki.median(), corpus.field_extensions.median(),
      corpus.field_signature.median());
  footnote_scale(cfg);
  return 0;
}

// Figure 3: handshake classification (Amplification / Multi-RTT / RETRY
// / 1-RTT) as a function of the client Initial size, 1200..1472 bytes.
int fig03_handshake_classification() {
  header("Figure 3", "influence of QUIC Initial sizes on the QUIC handshake");

  const auto cfg = population_config();
  const auto& model = shared_model();
  const std::size_t per_size = sample_cap(1200);

  text_table table({"Initial", "Amplification", "Multi-RTT", "RETRY",
                    "1-RTT", "unreachable", "reachable"});
  for (const std::size_t size : core::initial_size_sweep()) {
    core::census_options opt;
    opt.initial_size = size;
    opt.max_services = per_size;
    opt.collect_payload_details = false;
    const auto census = core::run_census(model, opt);
    const std::size_t reachable =
        census.probed - census.count(scan::handshake_class::unreachable);
    table.add_row({std::to_string(size),
                   pct(census.share(scan::handshake_class::amplification)),
                   pct(census.share(scan::handshake_class::multi_rtt)),
                   pct(census.share(scan::handshake_class::retry)),
                   pct(census.share(scan::handshake_class::one_rtt)),
                   pct(census.share(scan::handshake_class::unreachable)),
                   std::to_string(reachable)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nPaper @1362: 61%% amplification, 38%% multi-RTT, 0.07%% RETRY, "
      "0.75%% 1-RTT;\nreachability drops ~1.2%% for the largest Initials "
      "(load-balancer encapsulation).\n");
  footnote_scale(cfg);
  return 0;
}

// Figure 4: amplification factor during the first RTT for complete
// client handshakes (paper: relatively small, below ~6x; 165k services).
int fig04_amplification_cdf() {
  header("Figure 4", "first-RTT amplification factor CDF");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::census_options opt;
  opt.initial_size = 1362;
  opt.max_services = sample_cap(3000);
  const auto census = core::run_census(model, opt);

  print_cdf("Recv. UDP payload during first RTT [amplification factor]",
            census.first_burst_amplification, 13, 2);
  std::printf(
      "\nPaper: the factor exceeds 3x for the majority of handshakes but "
      "remains below ~6x.\nMeasured: median %.2fx, p99 %.2fx, max %.2fx "
      "(over %zu completing handshakes).\n",
      census.first_burst_amplification.median(),
      census.first_burst_amplification.quantile(0.99),
      census.first_burst_amplification.max(),
      census.first_burst_amplification.size());
  std::printf(
      "Cloudflare attribution (§4.1): %.1f%% of amplifying handshakes "
      "(paper: 96%%);\nconstant superfluous padding on those: %.0f bytes "
      "(paper: 2462).\n",
      census.amplifying == 0
          ? 0.0
          : 100.0 * static_cast<double>(census.amplifying_cloudflare) /
                static_cast<double>(census.amplifying),
      census.cloudflare_padding.empty() ? 0.0
                                        : census.cloudflare_padding.median());
  footnote_scale(cfg);
  return 0;
}

// Figure 5: payload exchanged during multi-RTT handshakes, split into
// TLS payload and remaining QUIC bytes, ranked by received volume.
int fig05_multirtt_payload() {
  header("Figure 5", "payload exchanged during multi-RTT handshakes");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::census_options opt;
  opt.initial_size = 1362;
  opt.max_services = sample_cap(3000);
  const auto census = core::run_census(model, opt);

  auto rows = census.multi_rtt_payload;  // (total received, TLS-only)
  std::sort(rows.begin(), rows.end());
  const std::size_t limit = 3 * 1362;

  text_table table({"rank", "received [B]", "TLS-only [B]", "QUIC rest [B]",
                    "TLS alone > 3x limit?"});
  const std::size_t steps = 12;
  for (std::size_t i = 0; i < steps && !rows.empty(); ++i) {
    const std::size_t idx = i * (rows.size() - 1) / (steps - 1);
    const auto& [total, tls] = rows[idx];
    table.add_row({std::to_string(idx), std::to_string(total),
                   std::to_string(tls), std::to_string(total - tls),
                   tls > limit ? "yes" : "no"});
  }
  std::printf("%s", table.render().c_str());

  const double exceeding =
      rows.empty() ? 0.0
                   : static_cast<double>(census.multi_tls_exceeding_limit) /
                         static_cast<double>(rows.size());
  std::printf(
      "\nTLS payload alone exceeds the 3x limit for %.1f%% of multi-RTT "
      "handshakes (paper: 87%%).\nMaximum remaining QUIC bytes: %zu "
      "(paper annotation: 27461 at 1M scale).\n",
      exceeding * 100.0, census.max_non_tls_bytes);
  footnote_scale(cfg);
  return 0;
}

// Figure 6: distribution of certificate chain sizes grouped by QUIC
// support. Paper: QUIC median 2329 B vs HTTPS-only 4022 B; 35% of all
// chains exceed 3x1357 = 4071 B; tails reach 18162 / 38059 B.
int fig06_chain_size_cdf() {
  header("Figure 6", "certificate chain sizes by QUIC support");

  const auto cfg = population_config();
  const auto& model = shared_model();
  const auto corpus =
      core::analyze_corpus(model, {.max_services = sample_cap(8000)});

  print_cdf("QUIC services", corpus.quic_chain_sizes, 13);
  print_cdf("HTTPS-only services", corpus.https_chain_sizes, 13);

  std::printf("\n%-28s %10s %10s\n", "", "paper", "measured");
  std::printf("%-28s %10s %10.0f\n", "QUIC median [B]", "2329",
              corpus.quic_chain_sizes.median());
  std::printf("%-28s %10s %10.0f\n", "HTTPS-only median [B]", "4022",
              corpus.https_chain_sizes.median());
  std::printf("%-28s %10s %9.1f%%\n", "all chains > 3x1357", "35%",
              corpus.all_chains_over_4071 * 100.0);
  std::printf("%-28s %10s %10.0f\n", "QUIC tail max [B]", "18162",
              corpus.quic_chain_sizes.max());
  std::printf("%-28s %10s %10.0f\n", "HTTPS-only tail max [B]", "38059",
              corpus.https_chain_sizes.max());
  std::printf(
      "\nPaper: domains without QUIC support will be affected negatively "
      "when they adopt QUIC\nand keep their existing (larger) "
      "certificates.\n");
  footnote_scale(cfg);
  return 0;
}

void print_chain_panel(const char* title,
                       const std::vector<core::chain_row>& rows,
                       double coverage, const char* paper_coverage) {
  std::printf("\n%s\n", title);
  text_table table({"#", "share", "parents [B]", "median leaf", "max leaf",
                    "chain"});
  int rank = 1;
  for (const auto& row : rows) {
    std::string parents;
    std::size_t parent_total = 0;
    for (const std::size_t size : row.parent_sizes) {
      if (!parents.empty()) {
        parents += " + ";
      }
      parents += std::to_string(size);
      parent_total += size;
    }
    table.add_row({std::to_string(rank++), pct(row.share),
                   parents + " = " + std::to_string(parent_total),
                   std::to_string(row.median_leaf),
                   std::to_string(row.max_leaf), row.display});
  }
  std::printf("%s", table.render().c_str());
  std::printf("top-10 coverage: %.1f%% (paper: %s)\n", coverage * 100.0,
              paper_coverage);
}

// Figure 7: the top-10 parent certificate chains for QUIC services (a)
// and HTTPS-only services (b): per-chain parent sizes, median/max leaf
// sizes and deployment shares.
int fig07_top_chains() {
  header("Figure 7", "top-10 certificate parent chains");

  const auto cfg = population_config();
  const auto& model = shared_model();
  const auto corpus =
      core::analyze_corpus(model, {.max_services = sample_cap(8000)});

  print_chain_panel("(a) QUIC services", corpus.quic_rows,
                    corpus.quic_top10_coverage, "96.5%");
  print_chain_panel("(b) HTTPS-only services", corpus.https_rows,
                    corpus.https_top10_coverage, "72%");

  std::printf(
      "\nPaper: 7 of 10 QUIC parent chains + median leaf exceed common "
      "amplification limits\n(5 of 10 for HTTPS-only); the shortest "
      "chains are Cloudflare's, and rows 2/3 carry the\ncross-signed "
      "ISRG Root X1 although the self-signed variant is in trust "
      "stores.\n");
  footnote_scale(cfg);
  return 0;
}

// Figure 8: mean certificate field sizes for QUIC domains, split into
// leaf/non-leaf certificates and small/large chains (threshold 4000 B).
// Paper: non-leaf public key + signature dominate large chains.
int fig08_field_sizes_by_type() {
  header("Figure 8", "mean certificate field sizes by type");

  const auto cfg = population_config();
  const auto& model = shared_model();
  const auto corpus =
      core::analyze_corpus(model, {.max_services = sample_cap(8000)});

  text_table table({"chain class", "cert type", "Subject", "Issuer", "SPKI",
                    "Extensions", "Signature", "Other", "sum"});
  for (std::size_t size_class = 0; size_class < 2; ++size_class) {
    for (std::size_t role = 0; role < 2; ++role) {
      std::vector<std::string> row = {
          size_class == 0 ? "<=4000 B" : "> 4000 B",
          role == 0 ? "leaf" : "non-leaf"};
      double total = 0.0;
      for (const auto& field : corpus.field_means[size_class][role]) {
        const double mean = field.mean();
        total += mean;
        row.push_back(fixed(mean, 0));
      }
      row.push_back(fixed(total, 0));
      table.add_row(std::move(row));
    }
  }
  std::printf("%s", table.render().c_str());

  const double big_nonleaf_key_sig =
      corpus.field_means[1][1][2].mean() + corpus.field_means[1][1][4].mean();
  const double small_nonleaf_key_sig =
      corpus.field_means[0][1][2].mean() + corpus.field_means[0][1][4].mean();
  std::printf(
      "\nPaper: for chains > 4000 B, non-leaf public key + signature "
      "contribute the most bytes.\nMeasured non-leaf SPKI+signature mean: "
      "%.0f B (large chains) vs %.0f B (small chains).\n",
      big_nonleaf_key_sig, small_nonleaf_key_sig);
  footnote_scale(cfg);
  return 0;
}

// Figure 9 + §4.3 active scans: QUIC amplification factors when clients
// never acknowledge (spoofed sources observed at a telescope), per
// hypergiant, plus the Meta /24 single-Initial probe groups.
int fig09_spoofed_amplification() {
  header("Figure 9",
         "amplification for unanswered handshakes (telescope + scans)");

  const auto cfg = population_config();
  const auto& model = shared_model();

  core::spoofed_options opt;
  opt.sessions_per_provider = sample_cap(120);
  const auto telescope = core::run_telescope_study(model, opt);

  for (const auto& [provider, samples] : telescope.amplification) {
    print_cdf(provider.c_str(), samples, 11, 1);
  }
  std::printf(
      "\nPaper: Cloudflare/Google mostly below 10x; Meta up to 45x. "
      "Measured Meta max: %.1fx.\nMeta backscatter sessions: median %.0f s, "
      "max %.0f s (paper: ~51 s / 206 s).\n",
      telescope.meta_max_amplification,
      telescope.meta_session_duration_s.empty()
          ? 0.0
          : telescope.meta_session_duration_s.median(),
      telescope.meta_session_duration_s.empty()
          ? 0.0
          : telescope.meta_session_duration_s.max());

  // §4.3 active confirmation: the three host groups of the Meta /24.
  std::printf("\nActive /24 scan (single 1252-byte Initial, no ACKs):\n");
  const auto rows = core::run_meta_scan(model, /*post_disclosure=*/false, 2);
  std::size_t group1 = 0;
  stats::sample_set group2;
  stats::sample_set group3;
  for (const auto& row : rows) {
    if (!row.responded) {
      ++group1;
    } else if (row.amplification.mean() > 15.0) {
      group3.add(static_cast<double>(row.bytes_received));
    } else {
      group2.add(static_cast<double>(row.bytes_received));
    }
  }
  std::printf(
      "  group 1: %zu hosts with no QUIC response (<=150 B)\n"
      "  group 2: %zu hosts, ~%.0f B responses (~%.1fx) — facebook.com "
      "front-ends\n"
      "  group 3: %zu hosts, ~%.0f B responses (~%.1fx) — instagram/"
      "whatsapp\n",
      group1, group2.size(), group2.empty() ? 0.0 : group2.median(),
      group2.empty() ? 0.0 : group2.median() / 1252.0, group3.size(),
      group3.empty() ? 0.0 : group3.median(),
      group3.empty() ? 0.0 : group3.median() / 1252.0);
  std::printf("  (paper: no response / ~7 kB at >5x / ~35 kB at >28x)\n");
  footnote_scale(cfg);
  return 0;
}

void print_meta_panel(const char* title,
                      const std::vector<core::meta_probe_row>& rows) {
  std::printf("\n%s\n", title);
  std::printf("  %-6s %-12s %-8s %s\n", "octet", "ampl (CI95)", "dur [s]",
              "services");
  stats::summary responding;
  for (const auto& row : rows) {
    if (!row.responded) {
      continue;
    }
    responding.add(row.amplification.mean());
    std::printf("  %-6d %5.1f ±%4.1f  %-8.1f %s\n", row.host_octet,
                row.amplification.mean(), row.amplification.ci95_half_width(),
                row.duration_s, row.services.c_str());
  }
  std::printf("  -> mean over responding hosts: %.1fx (max %.1fx)\n",
              responding.mean(), responding.max());
}

// Figure 11: mean amplification factors per host octet of the Meta /24
// point-of-presence, before (a) and after (b) the responsible
// disclosure. Paper: heterogeneous up to ~30x before; ~5x mean after.
int fig11_meta_disclosure() {
  header("Figure 11", "Meta /24 amplification before/after disclosure");

  const auto cfg = population_config();
  const auto& model = shared_model();
  const std::size_t repeats = sample_cap(3);

  print_meta_panel(
      "(a) before disclosure (August 2022)",
      core::run_meta_scan(model, /*post_disclosure=*/false, repeats));
  print_meta_panel(
      "(b) after disclosure (October 2022)",
      core::run_meta_scan(model, /*post_disclosure=*/true, repeats));

  std::printf(
      "\nPaper: significant improvement after disclosure, but with a mean "
      "amplification of ~5x\nthe responses still exceed the RFC 9000 "
      "anti-amplification limit.\n");
  footnote_scale(cfg);
  return 0;
}

// Figure 12: share of QUIC and HTTPS-only services per Tranco rank
// group. Paper: ~21% QUIC per group (sigma = 3) + ~59% HTTPS-only,
// independent of popularity. An empty group (fewer than ten domains)
// prints "-" and stays out of the mean and sigma.
int fig12_rank_reachability() {
  header("Figure 12", "service deployment across rank groups");

  const auto cfg = population_config();
  const auto& model = shared_model();

  constexpr std::size_t kGroups = internet::model::kRankGroups;
  std::array<std::size_t, kGroups> total{};
  std::array<std::size_t, kGroups> quic{};
  std::array<std::size_t, kGroups> https_only{};
  for (const auto& rec : model.records()) {
    const std::size_t g = model.rank_group(rec);
    ++total[g];
    quic[g] += rec.serves_quic() ? 1 : 0;
    https_only[g] +=
        rec.svc == internet::service_class::https_only ? 1 : 0;
  }

  text_table table({"rank group", "QUIC", "HTTPS only", "no TLS"});
  stats::summary quic_share;
  for (std::size_t g = 0; g < kGroups; ++g) {
    if (total[g] == 0) {
      table.add_row({rank_group_label(model, g), "-", "-", "-"});
      continue;
    }
    const double n = static_cast<double>(total[g]);
    const double q = static_cast<double>(quic[g]) / n;
    const double h = static_cast<double>(https_only[g]) / n;
    quic_share.add(q * 100.0);
    table.add_row(
        {rank_group_label(model, g), pct(q), pct(h), pct(1.0 - q - h)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nQUIC share across groups: mean %.1f%%, sigma %.1f (paper: ~21%%, "
      "sigma = 3).\nPaper: popularity has no influence on QUIC deployment "
      "share.\n",
      quic_share.mean(), quic_share.stddev());
  footnote_scale(cfg);
  return 0;
}

// Figure 13: handshake classification per Tranco rank group at the
// default Initial size of 1362 bytes. Paper: stable across groups,
// except 1-RTT which is more common among the top-100k (3.02%). A
// group with no probed service prints "-".
int fig13_rank_handshakes() {
  header("Figure 13", "handshake classification per rank group");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::census_options opt;
  opt.initial_size = 1362;
  opt.max_services = sample_cap(6000);
  opt.collect_payload_details = false;
  const auto census = core::run_census(model, opt);

  text_table table({"rank group", "Amplification", "Multi-RTT", "RETRY",
                    "1-RTT"});
  for (std::size_t g = 0; g < internet::model::kRankGroups; ++g) {
    const auto& row = census.group_counts[g];
    std::size_t n = 0;
    for (const auto count : row) {
      n += count;
    }
    if (n == 0) {
      table.add_row({rank_group_label(model, g), "-", "-", "-", "-"});
      continue;
    }
    auto share = [&](scan::handshake_class c) {
      return static_cast<double>(row[static_cast<std::size_t>(c)]) /
             static_cast<double>(n);
    };
    table.add_row({rank_group_label(model, g),
                   pct(share(scan::handshake_class::amplification)),
                   pct(share(scan::handshake_class::multi_rtt)),
                   pct(share(scan::handshake_class::retry)),
                   pct(share(scan::handshake_class::one_rtt))});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nPaper (top group): 64.18%% / 32.76%% / 0.04%% / 3.02%%; bottom "
      "group: 57.37%% / 42.40%% / 0.06%% / 0.18%%.\n");
  footnote_scale(cfg);
  return 0;
}

// Figure 14 (Appendix E): relative size of subject alternative names in
// QUIC leaf certificates — "cruise-liner" certificates are rare.
// Paper quadrants: 99% / 0.9% / 0.1% / 0%.
int fig14_cruise_liner() {
  header("Figure 14", "SAN byte share of QUIC leaf certificates");

  const auto cfg = population_config();
  const auto& model = shared_model();
  const auto corpus =
      core::analyze_corpus(model, {.max_services = sample_cap(8000)});

  print_cdf("SAN byte share of leaf certificates", corpus.san_shares, 11, 3);

  const auto total = static_cast<double>(
      corpus.quadrant_small_low + corpus.quadrant_small_high +
      corpus.quadrant_large_low + corpus.quadrant_large_high);
  auto q = [&](std::size_t v) {
    return total == 0.0 ? 0.0 : 100.0 * static_cast<double>(v) / total;
  };
  std::printf(
      "\nQuadrants (thresholds: leaf size 3x1357 B, SAN share p99 = "
      "%.1f%%):\n",
      corpus.san_share_p99 * 100.0);
  std::printf("  small leaf, low SAN share : %6.2f%%   (paper: 99%%)\n",
              q(corpus.quadrant_small_low));
  std::printf("  small leaf, high SAN share: %6.2f%%   (paper: 0.9%%)\n",
              q(corpus.quadrant_small_high));
  std::printf("  large leaf, high SAN share: %6.2f%%   (paper: 0.1%%)\n",
              q(corpus.quadrant_large_high));
  std::printf("  large leaf, low SAN share : %6.2f%%   (paper: 0%%)\n",
              q(corpus.quadrant_large_low));
  std::printf(
      "\nPaper: most SANs amount to <10%% of leaf bytes; cruise-liner "
      "certificates are rare for QUIC.\n");
  footnote_scale(cfg);
  return 0;
}

// Longitudinal census: handshake-class shares, amplification and
// certificate-size medians tracked across epochs of one evolving
// population (key rotations, chain migrations, ALPN churn, domain
// arrival/departure), with epoch-over-epoch deltas. The paper's census
// is one snapshot; this figure shows what its repeated-scan service
// reports as the population drifts.
int fig_epoch_deltas() {
  header("Epoch deltas", "longitudinal census over an evolving population");

  const auto cfg = population_config();
  service::service_options opt;
  opt.domains = cfg.domains;
  opt.seed = cfg.seed;
  opt.sample = sample_cap(200);
  opt.shards = 3;
  opt.epochs = 4;
  const store_dir store{"fig_epoch_deltas"};
  opt.store_dir = store.path();

  const auto result = service::run_epochs(opt);

  std::printf("\n%s", service::render_epoch_tables(result).c_str());
  std::printf(
      "\nThe population drifts, the census follows: key rotations and "
      "chain migrations move\nservices across the amplification "
      "boundary, ALPN churn shifts the probed set, and the\ndelta rows "
      "attribute each epoch's class shifts to the churn that caused "
      "them.\n");
  footnote_scale(cfg);
  return 0;
}

/// The materializing in-memory baseline of fig_outofcore_rss: every
/// probe's full result is kept, as a store-then-analyze pipeline pins
/// it for the whole run, and folded once the sweep ends.
core::epoch_aggregate in_memory_census(const internet::model& m,
                                       const engine::probe_plan& plan) {
  struct stored_record {
    std::uint32_t service_index = 0;
    std::uint32_t variant_index = 0;
    scan::probe_result result;
  };
  const engine::executor eng{m};
  const std::vector<std::uint32_t> sampled = eng.sample(plan);
  std::vector<stored_record> all;
  all.reserve(sampled.size() * plan.variants.size());
  engine::callback_sink collect{[&](const engine::probe_record& rec) {
    all.push_back({.service_index = rec.service_index,
                   .variant_index = rec.variant_index,
                   .result = rec.result});
  }};
  eng.run(plan, sampled, collect);

  core::epoch_aggregate out;
  core::epoch_aggregate_sink agg{out};
  agg.on_begin(plan, sampled.size());
  for (const stored_record& rec : all) {
    agg.on_record({.service_index = rec.service_index,
                   .variant_index = rec.variant_index,
                   .record = m.records()[rec.service_index],
                   .variant = plan.variants[rec.variant_index],
                   .result = rec.result});
  }
  agg.on_end();
  return out;
}

// Out-of-core figure: the sharded spill → merge pipeline (epoch 0 of
// the epoch service) against the materializing in-memory baseline over
// the census population, each in its own RSS phase. The golden pins
// everything deterministic — record counts per shard, the class mix,
// the aggregate byte sums and the path-vs-path deltas (all zero by
// construction) — while the peak-RSS comparison, which depends on the
// host, goes to stderr and is excluded from the golden. At paper scale:
// CERTQUIC_DOMAINS=1000000 CERTQUIC_SAMPLE=0.
int fig_outofcore_rss() {
  const internet::config cfg = population_config();
  const store_dir store{"fig_outofcore_rss"};
  service::service_options opt;
  opt.store_dir = store.path();
  opt.domains = cfg.domains;
  opt.seed = cfg.seed;
  opt.sample = sample_cap(200);
  opt.shards = 4;
  opt.epochs = 1;

  service::service_result spilled;
  std::size_t spill_peak_kb = 0;
  {
    rss_meter::phase phase;
    spilled = service::run_epochs(opt);
    spill_peak_kb = phase.peak_kb();
  }
  const service::epoch_report& epoch = spilled.epochs.front();
  const core::epoch_aggregate& spill = epoch.aggregate;

  // The baseline builds its own model, so each phase holds one.
  core::epoch_aggregate in_memory;
  std::size_t in_memory_peak_kb = 0;
  {
    rss_meter::phase phase;
    in_memory = in_memory_census(
        internet::model::generate(cfg),
        engine::probe_plan::single({.initial_size = opt.initial_size},
                                   opt.sample));
    in_memory_peak_kb = phase.peak_kb();
  }

  header("fig_outofcore_rss", "out-of-core spill/merge vs in-memory sweep");

  std::printf("sampled services : %zu across %zu shards\n", epoch.sampled,
              epoch.shard_records.size());
  text_table shard_table({"shard", "records"});
  for (std::size_t s = 0; s < epoch.shard_records.size(); ++s) {
    shard_table.add_row({std::to_string(s),
                         std::to_string(epoch.shard_records[s])});
  }
  std::printf("%s\n", shard_table.render().c_str());

  text_table agg({"aggregate", "spill+merge", "in-memory", "delta"});
  bool identical = spill.stream_digest == in_memory.stream_digest;
  const auto row = [&](const char* label, unsigned long long from_spill,
                       unsigned long long direct) {
    identical = identical && from_spill == direct;
    agg.add_row({label, std::to_string(from_spill), std::to_string(direct),
                 std::to_string(static_cast<long long>(from_spill) -
                                static_cast<long long>(direct))});
  };
  row("records", spill.records, in_memory.records);
  for (const auto cls :
       {scan::handshake_class::amplification,
        scan::handshake_class::multi_rtt, scan::handshake_class::retry,
        scan::handshake_class::one_rtt,
        scan::handshake_class::unreachable}) {
    row(scan::to_string(cls).c_str(), spill.count(cls),
        in_memory.count(cls));
  }
  row("bytes sent", spill.bytes_sent_total, in_memory.bytes_sent_total);
  row("bytes received", spill.bytes_received_total,
      in_memory.bytes_received_total);
  row("certificate bytes", spill.certificate_bytes,
      in_memory.certificate_bytes);
  std::printf("%s", agg.render().c_str());
  std::printf("\nstream digests match: %s (spill path replays the exact "
              "in-memory record stream)\n",
              identical ? "yes" : "NO");

  print_cdf("\nfirst-burst amplification CDF (merged spill stream)",
            spill.first_burst_amplification, 11, 2);
  footnote_scale(cfg);

  // Host-dependent: stderr only, never in the golden.
  std::fprintf(stderr, "peak RSS: spill+merge %zu kB | in-memory %zu kB\n",
               spill_peak_kb, in_memory_peak_kb);
  return identical ? 0 : 1;
}

// PQC what-if study: the chain-size (Fig. 6), amplification (Fig. 4)
// and handshake-class analyses re-run under post-quantum chain
// profiles (Chou & Cao: ML-DSA chains vs the QUIC amplification
// budgets). The classical slice reproduces the published numbers;
// pqc_leaf swaps the leaf key for ML-DSA-44, pqc_full serves ML-DSA
// keys and signatures on every certificate.
int fig_pqc_chain_impact() {
  header("PQC study",
         "post-quantum chain profiles vs QUIC handshake performance");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::pqc_options opt;
  opt.max_services = sample_cap(4000);
  opt.max_corpus = sample_cap(4000);
  const auto study = core::run_pqc_study(model, opt);

  for (const auto& slice : study.slices) {
    print_cdf(
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
  footnote_scale(cfg);
  return 0;
}

/// The median / p95 cells of a TTFB row: "-" when nothing was fetched.
std::string ttfb_cell(const stats::sample_set& ttfb_ms, double q) {
  return ttfb_ms.empty() ? std::string("-") : fixed(ttfb_ms.quantile(q), 1);
}

// Time-to-first-byte CDFs under today's (classical) certificate chains:
// the handshake-timeline model driven across the network-condition grid.
// Each curve is the TTFB distribution (first Initial sent -> first
// application byte) of the census population probed under one network
// regime — the time-domain counterpart of the size-domain figures.
int fig_ttfb_cdf() {
  header("TTFB study",
         "time to first byte across network conditions (classical)");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::ttfb_options opt;
  opt.max_services = sample_cap(4000);
  opt.profiles = {x509::pq_profile::classical};
  const auto study = core::run_ttfb_study(model, opt);

  for (const auto& cell : study.cells) {
    print_cdf(("TTFB [ms] — " + cell.condition.name).c_str(), cell.ttfb_ms,
              9, 1);
  }

  std::printf("\n");
  text_table summary({"condition", "RTT [ms]", "loss", "bw [Mbit/s]",
                      "probed", "fetched", "med [ms]", "p95 [ms]"});
  for (const auto& cell : study.cells) {
    const auto& cond = cell.condition;
    summary.add_row(
        {cond.name, fixed(static_cast<double>(cond.rtt) / 1000.0, 0),
         pct(cond.loss_rate, 1),
         cond.bandwidth_bps == 0
             ? std::string("-")
             : fixed(static_cast<double>(cond.bandwidth_bps) / 1e6, 0),
         std::to_string(cell.probed), std::to_string(cell.completed()),
         ttfb_cell(cell.ttfb_ms, 0.5), ttfb_cell(cell.ttfb_ms, 0.95)});
  }
  std::printf("%s", summary.render().c_str());

  std::printf(
      "\nThe ideal curve is a pure round-trip ladder (1-RTT handshakes "
      "fetch in ~2 RTT);\nbandwidth pacing stretches the first flights on "
      "thin pipes, and loss turns the\nPTO tail into whole extra RTTs of "
      "TTFB.\n");
  footnote_scale(cfg);
  return 0;
}

// TTFB under post-quantum chain profiles x network conditions: the
// full grid of the time-domain study. Every (profile, condition) cell
// probes the census population with matched per-probe randomness, so
// the per-cell deltas against the classical baseline isolate what the
// bigger chains cost in *time* — extra round trips on clean paths,
// serialization stretch on thin pipes, PTO tails under loss.
int fig_ttfb_pqc() {
  header("TTFB x PQC study",
         "time to first byte: chain profiles x network conditions");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::ttfb_options opt;
  opt.max_services = sample_cap(4000);

  const auto study = core::run_ttfb_study(model, opt);

  std::printf("\n");
  text_table grid({"profile", "condition", "probed", "fetched", "med [ms]",
                   "p95 [ms]", "d med [ms]", "d p95 [ms]"});
  for (const auto& cell : study.cells) {
    // Matched-randomness delta against the classical cell of the same
    // condition.
    const std::size_t cond_idx =
        static_cast<std::size_t>(&cell - study.cells.data()) %
        study.conditions.size();
    const auto& base = study.cell(x509::pq_profile::classical, cond_idx);
    auto delta = [&](double q) {
      if (cell.ttfb_ms.empty() || base.ttfb_ms.empty()) {
        return std::string("-");
      }
      char buf[24];
      std::snprintf(buf, sizeof buf, "%+.1f",
                    cell.ttfb_ms.quantile(q) - base.ttfb_ms.quantile(q));
      return std::string(buf);
    };
    grid.add_row({x509::to_string(cell.profile), cell.condition.name,
                  std::to_string(cell.probed),
                  std::to_string(cell.completed()),
                  ttfb_cell(cell.ttfb_ms, 0.5), ttfb_cell(cell.ttfb_ms, 0.95),
                  delta(0.5), delta(0.95)});
  }
  std::printf("%s", grid.render().c_str());

  std::printf(
      "\nPost-quantum chains cost little extra TTFB on clean fast paths "
      "(the extra bytes ride\nexisting flights) but compound on "
      "constrained ones: serialization of ML-DSA chains adds\nwhole "
      "milliseconds per flight, and any lost Initial turns the larger "
      "flight into a longer\nPTO recovery.\n");
  footnote_scale(cfg);
  return 0;
}

// Table 1: browser Initial sizes and TLS certificate-compression
// support, plus the compression rates and service-support shares our
// scans measure.
int tab01_browser_profiles() {
  header("Table 1", "browser Initial sizes and compression support");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::compression_options opt;
  opt.max_chains = sample_cap(1500);
  opt.max_probes = sample_cap(400);
  const auto study = core::run_compression_study(model, opt);

  text_table table({"Browser", "Version", "Init. size [B]", "Algorithms"});
  for (const auto& browser : core::browser_profiles()) {
    std::string algorithms;
    for (const auto alg : browser.compression) {
      if (!algorithms.empty()) {
        algorithms += ", ";
      }
      algorithms += compress::to_string(alg);
    }
    table.add_row({browser.name, browser.version,
                   browser.initial_size
                       ? std::to_string(*browser.initial_size)
                       : "no QUIC",
                   algorithms.empty() ? "-" : algorithms});
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nMeasured compression rates on served chains:\n");
  static const char* kNames[] = {"brotli", "zlib", "zstd"};
  static const char* kPaper[] = {"73%", "74%", "72%"};
  for (std::size_t a = 0; a < 3; ++a) {
    std::printf("  %-7s mean rate %5.1f%%  (paper: %s)\n", kNames[a],
                study.synthetic_savings[a].mean() * 100.0, kPaper[a]);
  }
  std::printf(
      "\nService support: brotli %.1f%% (paper: 96%%), all three "
      "algorithms %.2f%% (paper: 0.05%%, Meta).\n",
      study.support_brotli * 100.0, study.support_all_three * 100.0);
  footnote_scale(cfg);
  return 0;
}

// Table 2: relative ratio of crypto algorithms and key lengths in use,
// for leaf and non-leaf certificates of QUIC vs HTTPS-only services.
// Paper: HTTPS-only depends heavily on RSA.
//
// CERTQUIC_PQ_PROFILE=classical|pqc_leaf|pqc_full materializes the
// corpus under a PQC chain profile; the ML-DSA columns appear only
// when that switch actually put post-quantum certificates in the
// corpus, so the default run renders the published four-column table.
int tab02_crypto_algorithms() {
  header("Table 2", "crypto algorithms and key lengths in use");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::corpus_options copt;
  copt.max_services = sample_cap(8000);
  if (const char* profile = std::getenv("CERTQUIC_PQ_PROFILE");
      profile != nullptr && *profile != '\0') {
    try {
      copt.profile = x509::parse_pq_profile(profile);
    } catch (const config_error& e) {
      std::fprintf(stderr,
                   "tab02_crypto_algorithms: %s (expected classical, "
                   "pqc_leaf or pqc_full)\n",
                   e.what());
      return 2;
    }
  }
  const auto corpus = core::analyze_corpus(model, copt);

  std::size_t classes = core::kClassicalAlgClasses;
  for (const auto& side : corpus.alg_counts) {
    for (const auto& role : side) {
      for (std::size_t a = core::kClassicalAlgClasses; a < core::kAlgClasses;
           ++a) {
        if (role[a] > 0) {
          classes = core::kAlgClasses;
        }
      }
    }
  }

  std::vector<std::string> headers = {"Service", "Certificate"};
  for (std::size_t a = 0; a < classes; ++a) {
    headers.push_back(core::alg_class_names()[a]);
  }
  text_table table(std::move(headers));
  static const char* kSides[] = {"QUIC", "HTTPS-only"};
  static const char* kRoles[] = {"Leaf", "Non-leaf"};
  for (std::size_t side = 0; side < 2; ++side) {
    for (const std::size_t role : {1, 0}) {  // paper lists non-leaf first
      const auto& counts = corpus.alg_counts[side][role];
      std::size_t total = 0;
      for (const auto count : counts) {
        total += count;
      }
      std::vector<std::string> row = {kSides[side], kRoles[role]};
      for (std::size_t a = 0; a < classes; ++a) {
        row.push_back(total == 0 ? "-"
                                 : pct(static_cast<double>(counts[a]) /
                                       static_cast<double>(total), 1));
      }
      table.add_row(std::move(row));
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nPaper (QUIC non-leaf): 15.1 / 22.4 / 40.4 / 22.1 %%; (HTTPS-only "
      "leaf): 81.4 / 8.1 / 7.8 / 1.9 %%.\nPaper: certificates delivered "
      "by QUIC servers use more efficient crypto algorithms.\n");
  footnote_scale(cfg);
  return 0;
}

// Table 3 (Appendix C), as an executable ablation: the bytes a spoofing
// attacker elicits from the same deployment under each historical IETF
// anti-amplification rule.
int tab03_draft_policies() {
  header("Table 3", "anti-amplification rules across IETF drafts");

  const auto cfg = population_config();
  const auto& model = shared_model();

  text_table table({"IETF spec", "rule", "backscatter [B]", "amplification"});
  for (const auto& row : core::run_policy_study(model, "le-r3-x1cross")) {
    table.add_row({row.spec, row.rule, std::to_string(row.bytes_received),
                   fixed(row.amplification, 1) + "x"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nWorkload: one unacknowledged 1200-byte Initial against a "
      "non-coalescing server serving the\nLet's Encrypt R3 + ISRG Root X1 "
      "chain (2 retransmissions allowed).\nPaper: the limit evolved from "
      "none, to packet counts, to datagram counts, to 3x bytes.\n");
  footnote_scale(cfg);
  return 0;
}

// §4.2 "Compression helps": synthetic compression of collected chains
// and in-the-wild rates. Paper: median synthetic rate ~65%; 99% of
// compressed chains fit under 3x1357; wild mean 73%.
int tab_compression_study() {
  header("§4.2", "certificate compression study");

  const auto cfg = population_config();
  const auto& model = shared_model();
  core::compression_options opt;
  opt.max_chains = sample_cap(1500);
  opt.max_probes = sample_cap(400);
  const auto study = core::run_compression_study(model, opt);

  print_cdf("brotli savings on collected chains", study.synthetic_savings[0],
            11, 3);

  std::printf("\n%-44s %10s %10s\n", "", "paper", "measured");
  std::printf("%-44s %10s %9.1f%%\n", "median synthetic compression rate",
              "~65%", study.synthetic_savings[0].median() * 100.0);
  std::printf("%-44s %10s %9.1f%%\n",
              "chains under 3x1357 after compression", "99%",
              study.under_limit_compressed * 100.0);
  std::printf("%-44s %10s %9.1f%%\n", "chains under 3x1357 uncompressed",
              "-", study.under_limit_uncompressed * 100.0);
  std::printf("%-44s %10s %9.1f%%\n", "mean in-the-wild compression rate",
              "73%", study.wild_savings.mean() * 100.0);
  std::printf(
      "\nPaper: compression keeps 99%% of chains below the amplification "
      "limit, preventing\nmulti-RTT handshakes — but OpenSSL lacks "
      "certificate compression, so deployment lags.\n");
  footnote_scale(cfg);
  return 0;
}

constexpr std::array kRegistry = {
    entry{"fig02_cert_field_sizes", fig02_cert_field_sizes},
    entry{"fig03_handshake_classification", fig03_handshake_classification},
    entry{"fig04_amplification_cdf", fig04_amplification_cdf},
    entry{"fig05_multirtt_payload", fig05_multirtt_payload},
    entry{"fig06_chain_size_cdf", fig06_chain_size_cdf},
    entry{"fig07_top_chains", fig07_top_chains},
    entry{"fig08_field_sizes_by_type", fig08_field_sizes_by_type},
    entry{"fig09_spoofed_amplification", fig09_spoofed_amplification},
    entry{"fig11_meta_disclosure", fig11_meta_disclosure},
    entry{"fig12_rank_reachability", fig12_rank_reachability},
    entry{"fig13_rank_handshakes", fig13_rank_handshakes},
    entry{"fig14_cruise_liner", fig14_cruise_liner},
    entry{"fig_epoch_deltas", fig_epoch_deltas},
    entry{"fig_outofcore_rss", fig_outofcore_rss},
    entry{"fig_pqc_chain_impact", fig_pqc_chain_impact},
    entry{"fig_ttfb_cdf", fig_ttfb_cdf},
    entry{"fig_ttfb_pqc", fig_ttfb_pqc},
    entry{"tab01_browser_profiles", tab01_browser_profiles},
    entry{"tab02_crypto_algorithms", tab02_crypto_algorithms},
    entry{"tab03_draft_policies", tab03_draft_policies},
    entry{"tab_compression_study", tab_compression_study},
};

}  // namespace

std::span<const entry> registry() { return kRegistry; }

const entry* find(std::string_view id) {
  for (const entry& e : kRegistry) {
    if (e.id == id) {
      return &e;
    }
  }
  return nullptr;
}

void check_knobs() {
  (void)population_config();
  (void)sample_cap(0);
}

}  // namespace certquic::figures
