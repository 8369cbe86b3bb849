// lint_core — the repo's determinism lint, run by certquic_analyze.
//
// The engine's headline guarantee (parallel runs bit-identical to
// serial, spill replays byte-identical) rests on source-level
// discipline that no compiler flag checks: no wall-clock or global
// entropy in probe paths, no iteration over unordered containers
// feeding aggregates, no unreviewed floating-point accumulation in
// golden-feeding paths, and no ad-hoc rng seeding outside the
// per-probe hash(base_seed, domain, salt) scheme. This lint scans
// src/ for those patterns; intentional uses are waived explicitly —
// either inline ("// certquic-lint: allow <rule> — reason") or in the
// checked-in waiver file tools/lint_waivers.txt.
//
// Rules (ids are what waivers name):
//   nondet-source   calls to std::rand/srand, std::random_device,
//                   chrono::{system,steady,high_resolution}_clock,
//                   time()/clock_gettime()/gettimeofday() — anywhere
//                   in src/. Simulated time is the only clock.
//   unordered-iter  range-for / .begin() iteration over a variable
//                   declared std::unordered_{map,set} in engine/ or
//                   core/ (aggregators and sinks): hash-order would
//                   feed aggregates in nondeterministic order.
//   float-accum     `x += ...` where x was declared float/double (or
//                   vector<double> element) in engine/, core/ or
//                   stats/ — golden-feeding paths. Order-sensitive
//                   float accumulation is only deterministic because
//                   the stream is plan-ordered; each site must say so
//                   via a waiver.
//   raw-rng         direct construction of certquic::rng with an
//                   explicit seed outside util/rng.{hpp,cpp}. Probe
//                   paths must derive seeds via
//                   engine::probe_seed(base_seed, domain, salt) or an
//                   explicitly waived scheme.
//   atomic-plain    plain (memberless) use of a variable declared
//                   std::atomic in engine/ — e.g. `if (failed)` or
//                   `failed = true` where the protocol wants an explicit
//                   .load() / .store(). Implicit seq_cst compiles and
//                   races-free under TSan, but it hides the intended
//                   ordering and invites a plain load where an
//                   acquire is required.
//
// The scanner is token-level: every rule matches against the blanked
// code view produced by analyze::scan_source (tools/analyze_core.*),
// in which block and line comments and string/char/raw-string literal
// bodies are spaces. A `//` inside a URL string no longer truncates
// the line before matching, and a pattern inside a block comment no
// longer matches at all. Findings still carry the RAW source line —
// that is what waiver substrings and humans read.
//
// The waiver machinery is shared with the architecture analyzer
// (certquic_analyze): its rule ids (layer-upward, layer-cycle,
// layer-drift, pragma-once, self-contained, unused-include,
// unused-export) are valid in the waiver file too, and `apply_waivers` takes the set of rules
// in scope for the current run so a lint-only run neither consumes
// nor staleness-flags an analyzer waiver.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace certquic::lint {

/// One lint hit: file (relative to the scan root), 1-based line, rule
/// id, the offending source line and a human explanation.
struct finding {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string source_line;
};

/// One parsed entry of the waiver file.
struct waiver {
  std::string rule;
  std::string path;       // relative to the scan root
  std::string substring;  // must appear in the flagged line; "*" = any
  std::string reason;
  std::size_t file_line = 0;  // line in the waiver file (diagnostics)
};

/// Result of a lint run: surviving findings plus any waivers that
/// matched nothing (stale waivers fail the gate too — the file must
/// describe reality).
struct report {
  std::vector<finding> findings;
  std::vector<waiver> unused_waivers;

  [[nodiscard]] bool clean() const noexcept {
    return findings.empty() && unused_waivers.empty();
  }
};

/// Parses the pipe-delimited waiver file:
///   rule|path|line-substring|reason
/// '#' lines and blank lines are skipped. Throws config_error on a
/// malformed line (wrong field count, unknown rule, empty reason).
[[nodiscard]] std::vector<waiver> load_waivers(const std::string& path);

/// Lints preloaded (relative_path, content) pairs, exactly as
/// lint_files does for on-disk trees: a companion header and source
/// (same basename) share declaration context. A file's relative path
/// decides which path-scoped rules apply (unordered-iter: engine/ and
/// core/; float-accum: engine/, core/ and stats/) and is what waivers
/// match against. Returns UNWAIVED findings sorted by (path, line,
/// rule); callers apply waivers via apply_waivers. This is the entry
/// the architecture analyzer uses — it has already read every file
/// once.
[[nodiscard]] std::vector<finding> lint_sources(
    const std::vector<std::pair<std::string, std::string>>& sources);

/// Only the nondet-source rule, token-level, for the tools/ self-scan:
/// the analyzer must obey its own no-wall-clock rule, but tools/ is
/// not subject to the src/-shaped aggregator/golden-path rules.
[[nodiscard]] std::vector<finding> lint_nondet_only(
    const std::string& relative_path, const std::string& content);

/// Applies waivers to findings (first matching waiver wins). A waiver
/// participates only when its rule is in `rules_in_scope`: out-of-
/// scope waivers are neither applied nor reported stale, so the
/// lint-only gate (five lint rules in scope) coexists with the full
/// analyze gate (all rules in scope, which performs the complete
/// stale-waiver check).
[[nodiscard]] report apply_waivers(std::vector<finding> findings,
                                   const std::vector<waiver>& waivers,
                                   const std::set<std::string>& rules_in_scope);

/// Lints files on disk. Paths must live under `root`; findings carry
/// root-relative paths. Waivers are applied with the five lint rules
/// in scope (first matching waiver wins; every in-scope waiver must
/// match at least one finding or it is reported unused). Throws
/// config_error on unreadable files.
[[nodiscard]] report lint_files(const std::vector<std::string>& files,
                                const std::string& root,
                                const std::vector<waiver>& waivers);

/// Whole file contents, read as bytes. Throws config_error when the
/// file cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// `file` relative to `root`, with forward slashes (the form findings
/// and waivers use).
[[nodiscard]] std::string relativize(const std::string& file,
                                     const std::string& root);

/// All .hpp/.cpp files under root, sorted (deterministic scan order).
[[nodiscard]] std::vector<std::string> collect_sources(
    const std::string& root);

/// The five determinism-lint rule ids (the scope of a lint-only run).
[[nodiscard]] const std::set<std::string>& lint_rules();

/// Every rule id the toolchain implements: the five lint rules plus
/// the analyzer's layer-upward / layer-cycle / layer-drift /
/// pragma-once / self-contained / unused-include / unused-export (the
/// scope of a full certquic_analyze run, and what the waiver file may
/// name).
[[nodiscard]] const std::set<std::string>& all_rules();

/// True for rule ids the toolchain implements (waiver validation).
[[nodiscard]] bool known_rule(const std::string& rule);

}  // namespace certquic::lint
