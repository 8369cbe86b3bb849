// Tier-1 suite for the architecture analyzer (tools/analyze_core.*).
//
// Three halves:
//   1. Token-scanner unit tests — comments, string/char/raw-string
//      literals and digit separators are blanked exactly as promised;
//      preprocessor directives are only seen outside comments.
//   2. Fixture trees — tests/analyze_fixtures/{clean,upward,cycle,
//      hygiene,drift,unused} each pin an EXACT finding set (zero
//      findings, one upward edge, one cycle, three hygiene violations,
//      two drift directions, three unused exports). Each tree is a
//      small repo: src/ plus an examples/ driver that uses its API, and
//      for `unused` a tests/ directory too.
//   3. Real tree — src/ must analyze clean against tools/layers.txt
//      and tools/lint_waivers.txt (the same gate verify.sh runs), the
//      spec's module set must match the src/ module directories in
//      both directions, the emitted depgraph must agree with both,
//      and tools/ itself must pass the nondet-source self-scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze_core.hpp"
#include "lint_core.hpp"

namespace certquic::analyze {
namespace {

const std::string kFixtureRoot = CERTQUIC_ANALYZE_FIXTURE_DIR;
const std::string kSrcRoot = CERTQUIC_LINT_SRC_DIR;
const std::string kWaiverFile = CERTQUIC_LINT_WAIVER_FILE;
const std::string kLayersFile = CERTQUIC_LAYERS_FILE;
const std::string kToolsDir = CERTQUIC_TOOLS_DIR;

std::vector<std::tuple<std::string, std::size_t, std::string>> keys(
    const std::vector<lint::finding>& findings) {
  std::vector<std::tuple<std::string, std::size_t, std::string>> out;
  out.reserve(findings.size());
  for (const lint::finding& f : findings) {
    out.emplace_back(f.path, f.line, f.rule);
  }
  return out;
}

analysis_result analyze_fixture(const std::string& tree) {
  const std::string root = kFixtureRoot + "/" + tree + "/src";
  const layer_spec spec =
      load_layer_spec(kFixtureRoot + "/" + tree + "/layers.txt");
  return analyze_tree(lint::collect_sources(root), root, spec, {});
}

// ---------------------------------------------------------- scanner

TEST(Scanner, LineCommentsAreBlanked) {
  const scanned_file s = scan_source("int a; // std::rand() here\nint b;\n");
  ASSERT_EQ(s.code_lines.size(), 2u);
  EXPECT_EQ(s.code_lines[0].find("rand"), std::string::npos);
  EXPECT_NE(s.code_lines[0].find("int a;"), std::string::npos);
  EXPECT_EQ(s.raw_lines[0], "int a; // std::rand() here");
}

TEST(Scanner, BlockCommentsSpanLines) {
  const scanned_file s =
      scan_source("/* system_clock\n   random_device */ int c;\n");
  EXPECT_EQ(s.code_lines[0].find("system_clock"), std::string::npos);
  EXPECT_EQ(s.code_lines[1].find("random_device"), std::string::npos);
  EXPECT_NE(s.code_lines[1].find("int c;"), std::string::npos);
}

TEST(Scanner, StringBodiesAreBlankedButTheLineSurvives) {
  // The `//` inside the URL must not swallow the code after it.
  const scanned_file s =
      scan_source("auto u = \"http://x.example\"; total += 1;\n");
  EXPECT_EQ(s.code_lines[0].find("http"), std::string::npos);
  EXPECT_NE(s.code_lines[0].find("total += 1;"), std::string::npos);
}

TEST(Scanner, RawStringsAreBlanked) {
  const scanned_file s =
      scan_source("auto r = R\"(srand(1) gettimeofday)\"; int after;\n");
  EXPECT_EQ(s.code_lines[0].find("srand"), std::string::npos);
  EXPECT_EQ(s.code_lines[0].find("gettimeofday"), std::string::npos);
  EXPECT_NE(s.code_lines[0].find("int after;"), std::string::npos);
}

TEST(Scanner, DigitSeparatorsAreNotCharLiterals) {
  const scanned_file s =
      scan_source("auto v = 0x90C5'0D5A; clock_gettime_marker();\n");
  EXPECT_NE(s.code_lines[0].find("clock_gettime_marker"),
            std::string::npos);
}

TEST(Scanner, EscapedQuotesStayInsideTheLiteral) {
  const scanned_file s =
      scan_source("auto q = \"say \\\"hi\\\" now\"; int live;\n");
  EXPECT_EQ(s.code_lines[0].find("hi"), std::string::npos);
  EXPECT_NE(s.code_lines[0].find("int live;"), std::string::npos);
}

TEST(Scanner, IncludesAndPragmaAreTracked) {
  const scanned_file s = scan_source(
      "#pragma once\n"
      "#include \"mod/a.hpp\"\n"
      "#include <vector>\n"
      "/* #include \"mod/ghost.hpp\" */\n");
  EXPECT_TRUE(s.has_pragma_once);
  ASSERT_EQ(s.includes.size(), 2u);
  EXPECT_EQ(s.includes[0].line, 2u);
  EXPECT_EQ(s.includes[0].target, "mod/a.hpp");
  EXPECT_FALSE(s.includes[0].angled);
  EXPECT_EQ(s.includes[1].target, "vector");
  EXPECT_TRUE(s.includes[1].angled);
}

// --------------------------------------------------------- fixtures

TEST(AnalyzeFixtures, CleanTreeHasZeroFindings) {
  const analysis_result r = analyze_fixture("clean");
  EXPECT_TRUE(r.findings.empty()) << keys(r.findings).size();
  // The include graph is exactly mid->base, top->mid.
  ASSERT_EQ(r.graph.edges.size(), 2u);
  EXPECT_EQ(r.graph.edges.count({"mid", "base"}), 1u);
  EXPECT_EQ(r.graph.edges.count({"top", "mid"}), 1u);
}

TEST(AnalyzeFixtures, UpwardEdgeIsExactlyOneFinding) {
  const analysis_result r = analyze_fixture("upward");
  EXPECT_EQ(keys(r.findings),
            (std::vector<std::tuple<std::string, std::size_t, std::string>>{
                {"base/low.hpp", 3, "layer-upward"},
            }));
}

TEST(AnalyzeFixtures, CycleIsExactlyOneFinding) {
  // alpha and beta share a layer (same-layer includes are legal), so
  // the only finding is the cycle, anchored at the edge leaving the
  // lexicographically smallest member.
  const analysis_result r = analyze_fixture("cycle");
  EXPECT_EQ(keys(r.findings),
            (std::vector<std::tuple<std::string, std::size_t, std::string>>{
                {"alpha/a.hpp", 3, "layer-cycle"},
            }));
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_NE(r.findings[0].message.find("alpha -> beta -> alpha"),
            std::string::npos);
}

TEST(AnalyzeFixtures, HygieneViolationsAreExact) {
  const analysis_result r = analyze_fixture("hygiene");
  EXPECT_EQ(keys(r.findings),
            (std::vector<std::tuple<std::string, std::size_t, std::string>>{
                {"mod/dead.cpp", 1, "unused-include"},
                {"mod/late.cpp", 1, "self-contained"},
                {"mod/nopragma.hpp", 1, "pragma-once"},
            }));
}

TEST(AnalyzeFixtures, UnusedExportsAreExact) {
  // mod/api.hpp exports a used function, an unused one, a test-only
  // one, one only examples/ calls, and a struct whose second field is
  // only written. The used and the driver-only names are not reported.
  const analysis_result r = analyze_fixture("unused");
  EXPECT_EQ(keys(r.findings),
            (std::vector<std::tuple<std::string, std::size_t, std::string>>{
                {"mod/api.hpp", 6, "unused-export"},
                {"mod/api.hpp", 7, "unused-export"},
                {"mod/api.hpp", 12, "unused-export"},
            }));
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_NE(r.findings[0].message.find("'unused_function' (function)"),
            std::string::npos);
  EXPECT_EQ(r.findings[0].message.find("test-only"), std::string::npos);
  EXPECT_NE(r.findings[1].message.find("'test_only' (function) is test-only"),
            std::string::npos);
  EXPECT_NE(r.findings[2].message.find("'written_only' (field)"),
            std::string::npos);
  EXPECT_EQ(r.findings[2].message.find("test-only"), std::string::npos);
}

TEST(AnalyzeFixtures, DriftIsReportedInBothDirections) {
  const analysis_result r = analyze_fixture("drift");
  ASSERT_EQ(r.findings.size(), 2u);
  // Spec side: 'ghost' is named on line 5 of the spec but absent from
  // disk; the finding anchors in the spec file itself.
  const auto spec_side = std::find_if(
      r.findings.begin(), r.findings.end(), [](const lint::finding& f) {
        return f.message.find("'ghost'") != std::string::npos;
      });
  ASSERT_NE(spec_side, r.findings.end());
  EXPECT_EQ(spec_side->rule, "layer-drift");
  EXPECT_EQ(spec_side->line, 5u);
  EXPECT_NE(spec_side->path.find("layers.txt"), std::string::npos);
  // Tree side: 'rogue' exists on disk but the spec does not place it.
  const auto tree_side = std::find_if(
      r.findings.begin(), r.findings.end(), [](const lint::finding& f) {
        return f.message.find("'rogue'") != std::string::npos;
      });
  ASSERT_NE(tree_side, r.findings.end());
  EXPECT_EQ(tree_side->rule, "layer-drift");
  EXPECT_EQ(tree_side->path, "rogue");
}

TEST(AnalyzeFixtures, BadSpecsThrow) {
  EXPECT_THROW((void)load_layer_spec(kFixtureRoot + "/no-such-file.txt"),
               std::exception);
}

// -------------------------------------------------------- real tree

TEST(AnalyzeRealTree, SrcIsCleanAgainstCheckedInSpecAndWaivers) {
  const layer_spec spec = load_layer_spec(kLayersFile);
  const analysis_result r =
      analyze_tree(lint::collect_sources(kSrcRoot), kSrcRoot, spec, {});
  const lint::report rep = lint::apply_waivers(
      r.findings, lint::load_waivers(kWaiverFile), lint::all_rules());
  for (const lint::finding& f : rep.findings) {
    ADD_FAILURE() << f.path << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n    " << f.source_line;
  }
  for (const lint::waiver& w : rep.unused_waivers) {
    ADD_FAILURE() << "stale waiver (line " << w.file_line
                  << " of lint_waivers.txt): " << w.rule << "|" << w.path
                  << "|" << w.substring;
  }
  EXPECT_TRUE(rep.clean());
}

TEST(AnalyzeRealTree, LayerSpecMatchesSrcModulesBothWays) {
  // Adding a src/<module>/ without placing it in tools/layers.txt (or
  // vice versa) fails tier-1 here — the spec cannot drift from disk.
  const layer_spec spec = load_layer_spec(kLayersFile);
  std::set<std::string> spec_modules;
  for (const auto& [module, layer] : spec.layer_of) {
    spec_modules.insert(module);
  }
  std::set<std::string> disk_modules;
  for (const auto& dir : std::filesystem::directory_iterator(kSrcRoot)) {
    if (dir.is_directory()) {
      disk_modules.insert(dir.path().filename().string());
    }
  }
  EXPECT_EQ(spec_modules, disk_modules);
}

TEST(AnalyzeRealTree, DepgraphAgreesWithSpecAndDisk) {
  const layer_spec spec = load_layer_spec(kLayersFile);
  const analysis_result r =
      analyze_tree(lint::collect_sources(kSrcRoot), kSrcRoot, spec, {});
  std::set<std::string> spec_modules;
  for (const auto& [module, layer] : spec.layer_of) {
    spec_modules.insert(module);
  }
  EXPECT_EQ(r.graph.modules, spec_modules);
  // The emitted JSON names every module exactly once.
  const std::string json = depgraph_json(r.graph, spec, "src");
  for (const std::string& module : spec_modules) {
    EXPECT_NE(json.find("\"name\": \"" + module + "\""), std::string::npos)
        << module;
  }
  // Every edge in the graph points strictly downward or same-layer
  // (anything else would have been a finding above).
  for (const auto& [edge, sites] : r.graph.edges) {
    EXPECT_GE(spec.layer_of.at(edge.first), spec.layer_of.at(edge.second))
        << edge.first << " -> " << edge.second;
  }
}

TEST(AnalyzeRealTree, ToolsPassTheNondetSelfScan) {
  // The analyzer obeys its own no-wall-clock rule, with zero waivers.
  const auto files = lint::collect_sources(kToolsDir);
  ASSERT_GE(files.size(), 5u);
  for (const std::string& file : files) {
    std::ifstream in{file, std::ios::binary};
    ASSERT_TRUE(in) << file;
    const std::string content{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
    const std::string relative =
        "tools/" +
        std::filesystem::relative(file, kToolsDir).generic_string();
    for (const lint::finding& f : lint::lint_nondet_only(relative, content)) {
      ADD_FAILURE() << f.path << ":" << f.line << ": [" << f.rule << "] "
                    << f.source_line;
    }
  }
}

}  // namespace
}  // namespace certquic::analyze
