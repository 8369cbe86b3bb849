// certquic_analyze — the repo's architecture analyzer.
//
// Where tools/lint_core.* asks "does this line look nondeterministic",
// this layer asks "does the tree have the shape the documentation
// promises". It is built on a real (but dependency-free) token
// scanner — `scan_source` strips block and line comments, string,
// character and raw-string literals, and records preprocessor
// directives — so nothing here ever matches text inside a comment or
// a literal. The same scanner feeds the determinism lint
// (lint_core.cpp), which is what fixed the historical
// `//`-inside-a-URL truncation and block-comment false-positive
// classes.
//
// Two passes run on top of the scanner:
//
//   layering   The `#include` graph across all src/<module>/ units is
//              extracted and checked against the checked-in layer
//              spec (tools/layers.txt — one layer per line, lowest
//              first, mirroring the docs/ARCHITECTURE.md layer map).
//              A module may include modules on its own line or on
//              earlier (lower) lines; an include of a later line is a
//              `layer-upward` finding, any include cycle is a
//              `layer-cycle` finding, and a mismatch between the spec
//              and the set of modules actually present under src/ is
//              a `layer-drift` finding (both directions — adding a
//              module without placing it in a layer fails the gate).
//              The graph is also emitted as build/depgraph.{json,dot}
//              so the docs can embed the real thing.
//
//   hygiene    IWYU-lite header discipline:
//              `pragma-once`     every header carries #pragma once;
//              `self-contained`  a header's companion .cpp includes
//                                its own header FIRST, so every
//                                header is compiled stand-alone at
//                                least once;
//              `unused-include`  a direct project include none of
//                                whose declared symbols appear in the
//                                including unit. The symbol match is
//                                token-level and deliberately
//                                generous (type/using/typedef/macro
//                                names, every identifier followed by
//                                `(`, `=` or `{`, and the header's
//                                stem), so it prefers missing a dead
//                                include over flagging a live one —
//                                conservative, and waivable through
//                                tools/lint_waivers.txt like any lint
//                                finding;
//              `unused-export`   a name a src/<module>/*.hpp declares
//                                (free or public member function,
//                                field, enumerator, constant, type)
//                                that nothing uses. A use is any
//                                token occurrence other than the
//                                declaration, the definition in the
//                                companion .cpp, or a write (`x =`,
//                                `x +=`, `++x`, ...). Uses count in
//                                the scanned files and in the driver
//                                directories beside --root (tools/,
//                                certbench/, examples/); a name used
//                                only under tests/ is reported
//                                "test-only". Token-level, so a name
//                                that collides with another
//                                identifier counts that one's uses and
//                                is not reported.
//
// Findings reuse `lint::finding` and the lint's waiver machinery, so
// one waiver file governs the whole gate and stale waivers still fail
// it. tools/certquic_analyze (the CLI) runs scanner + layering +
// hygiene + the five migrated lint rules in one pass, plus a
// `nondet-source` self-scan over tools/ itself — the analyzer obeys
// its own rules.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint_core.hpp"

namespace certquic::analyze {

/// One #include directive surviving comment stripping.
struct include_directive {
  std::size_t line = 0;   // 1-based
  std::string target;     // path between the quotes / angle brackets
  bool angled = false;    // <...> (system) vs "..." (project)
};

/// Token-scanner view of one source file. `code_lines` parallels
/// `raw_lines` with every comment and every string/char/raw-string
/// literal body blanked to spaces (quotes kept, line structure kept),
/// so regexes over it can never match commented-out or quoted text.
struct scanned_file {
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  std::vector<include_directive> includes;
  bool has_pragma_once = false;
};

/// Scans one in-memory source file. Handles `//` and `/* */` comments,
/// "..." strings with escapes, '...' char literals (digit separators
/// like 0x90C5'0D5A are NOT treated as literals), and R"delim(...)delim"
/// raw strings. Preprocessor directives are detected on the blanked
/// view, so `#include` inside a block comment does not count.
[[nodiscard]] scanned_file scan_source(const std::string& content);

/// The checked-in layer spec: one layer per line, lowest first,
/// modules separated by whitespace; '#' lines and blank lines are
/// skipped. Throws config_error on an empty spec or a module named
/// twice.
struct layer_spec {
  std::string source_path;  // as given to load_layer_spec (diagnostics)
  std::vector<std::vector<std::string>> layers;      // lowest first
  std::map<std::string, std::size_t> layer_of;       // module -> index
  std::map<std::string, std::size_t> spec_line_of;   // module -> file line
};

[[nodiscard]] layer_spec load_layer_spec(const std::string& path);

/// The module-level include graph extracted from the scanned tree.
struct module_graph {
  /// One cross-module include site backing an edge.
  struct site {
    std::string path;   // root-relative includer
    std::size_t line = 0;
    std::string raw;    // the raw #include line (findings / waivers)
  };
  std::set<std::string> modules;  // every module seen under the root
  std::map<std::pair<std::string, std::string>, std::vector<site>> edges;
};

/// Which passes to run (the CLI runs all three; tests isolate them).
struct analysis_options {
  bool run_lint = true;      // the five determinism rules (lint_core)
  bool run_layering = true;  // layer spec conformance + cycles + drift
  bool run_hygiene = true;   // pragma-once / self-contained /
                             // unused-include / unused-export
};

/// Everything one analysis run produces: unwaived findings (apply
/// waivers with lint::apply_waivers) plus the include graph for the
/// depgraph artifacts.
struct analysis_result {
  std::vector<lint::finding> findings;
  module_graph graph;
};

/// Analyzes files (absolute paths under `root`). The module drift
/// check additionally enumerates `root`'s subdirectories, so a module
/// escapes neither by being left out of the file list nor by being
/// left out of the spec. unused-export also reads the .hpp/.cpp files
/// of root's sibling tools/, certbench/, examples/ and tests/
/// directories, where present. Throws config_error on unreadable
/// files.
[[nodiscard]] analysis_result analyze_tree(
    const std::vector<std::string>& files, const std::string& root,
    const layer_spec& spec, const analysis_options& opts);

/// The dependency-graph artifacts. JSON schema (all arrays sorted):
///   {"root": "src",
///    "layers": [{"index": 0, "modules": ["util"]}, ...],
///    "modules": [{"name": "asn1", "layer": 1, "files": 3,
///                 "includes": ["util"]}, ...],
///    "edges": [{"from": "asn1", "to": "util", "sites": 3}, ...]}
/// The DOT form clusters modules by layer for rendering.
[[nodiscard]] std::string depgraph_json(const module_graph& graph,
                                        const layer_spec& spec,
                                        const std::string& root_name);
[[nodiscard]] std::string depgraph_dot(const module_graph& graph,
                                       const layer_spec& spec);

}  // namespace certquic::analyze
