// Golden-file regression tests for the paper's figures and tables.
//
// Each test runs `certquic_scan fig <id>` for one entry of the figure
// registry (tools/figures.hpp) on a small, fixed-seed population and
// diffs its stdout against tests/golden/<id>.txt. This turns the paper's
// figures and tables from write-only printers into enforced regression
// checks: any change to the synthetic Internet, the certificate encoder
// or the handshake pipeline that shifts a published number shows up as
// a diff here. Coverage is enforced both ways: every registry entry has
// a golden and every golden has a registry entry.
//
// Regenerating after an intentional change:
//   build/tests/golden_test --update-golden
// (or CERTQUIC_UPDATE_GOLDEN=1 ctest -R golden_test)
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "figures.hpp"
#include "golden.hpp"

#ifndef CERTQUIC_SCAN_BIN
#error "CERTQUIC_SCAN_BIN must point at the built certquic_scan"
#endif
#ifndef CERTQUIC_SMOKE_ENV
#error "CERTQUIC_SMOKE_ENV must carry the shared smoke-run knobs"
#endif

namespace certquic::test {
namespace {

// Population knobs, single-sourced from CERTQUIC_SMOKE_KNOBS in the root
// CMakeLists. The checked-in golden files must be regenerated whenever
// they change.
constexpr const char* kEnv = CERTQUIC_SMOKE_ENV;

/// Runs certquic_scan with `args` under the smoke knobs plus `env`
/// (later assignments win). The binary path is quoted so a checkout
/// under a directory with spaces still resolves; the knobs must stay
/// unquoted words for `env`.
int run_scan(const std::string& env, const std::string& args,
             std::string& out) {
  return run_capture(std::string("env ") + kEnv + " " + env + " '" +
                         CERTQUIC_SCAN_BIN "' " + args,
                     out);
}

std::vector<std::string> registry_ids() {
  std::vector<std::string> ids;
  for (const auto& e : figures::registry()) {
    ids.emplace_back(e.id);
  }
  return ids;
}

class Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Golden, MatchesFigureOutput) {
  const std::string& id = GetParam();
  std::string out;
  const int status = run_scan("", "fig " + id, out);
  ASSERT_EQ(status, 0) << "fig " << id << " exited with " << status;
  ASSERT_FALSE(normalize_text(out).empty()) << id << " printed nothing";
  EXPECT_TRUE(golden_compare(id + ".txt", out));
}

INSTANTIATE_TEST_SUITE_P(
    Registry, Golden, ::testing::ValuesIn(registry_ids()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(GoldenCoverage, EveryEntryHasAGoldenAndEveryGoldenAnEntry) {
  std::set<std::string> goldens;
  for (const auto& file : std::filesystem::directory_iterator(golden_dir())) {
    if (file.path().extension() == ".txt") {
      goldens.insert(file.path().stem().string());
    }
  }
  const auto ids = registry_ids();
  const std::set<std::string> entries(ids.begin(), ids.end());
  ASSERT_EQ(entries.size(), ids.size()) << "duplicate registry id";
  for (const auto& id : entries) {
    EXPECT_TRUE(goldens.contains(id) || update_golden_requested())
        << "registry entry without a golden: " << id;
  }
  for (const auto& golden : goldens) {
    EXPECT_TRUE(entries.contains(golden))
        << "golden without a registry entry: " << golden << ".txt";
  }
}

// Fewer domains than rank groups leaves groups empty: their rows print
// "-" instead of dividing by zero.
TEST(FigureEdges, RankGroupsOnATinyPopulation) {
  std::string out;
  ASSERT_EQ(run_scan("CERTQUIC_DOMAINS=5", "fig fig12_rank_reachability", out),
            0);
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;
  EXPECT_NE(out.find("[1, 2)"), std::string::npos) << out;
}

// A count that is not all digits fails closed, naming the knob or flag,
// instead of running on the digits before the first letter.
TEST(FigureEdges, MalformedCountsExitTwo) {
  std::string out;
  EXPECT_EQ(run_scan("CERTQUIC_DOMAINS=2k", "fig fig12_rank_reachability 2>&1",
                     out),
            2);
  EXPECT_NE(out.find("CERTQUIC_DOMAINS"), std::string::npos) << out;
  EXPECT_EQ(out.find("Figure 12"), std::string::npos) << out;
  EXPECT_EQ(run_scan("CERTQUIC_SAMPLE=99999999999999999999",
                     "fig fig12_rank_reachability 2>&1", out),
            2);
  EXPECT_NE(out.find("CERTQUIC_SAMPLE"), std::string::npos) << out;
  EXPECT_EQ(run_scan("", "census --domains 2k 2>&1", out), 2);
  EXPECT_NE(out.find("--domains"), std::string::npos) << out;
  EXPECT_EQ(run_scan("", "census --sample '' 2>&1", out), 2);
  EXPECT_NE(out.find("--sample"), std::string::npos) << out;
}

TEST(FigureEdges, UnknownIdsAndFlagsExitTwo) {
  std::string out;
  EXPECT_EQ(run_scan("", "fig fig10_nonexistent 2>&1", out), 2);
  for (const auto& id : registry_ids()) {
    EXPECT_NE(out.find(id), std::string::npos) << "usage omits " << id;
  }
  EXPECT_EQ(run_scan("", "fig fig12_rank_reachability --threads 2 2>&1", out),
            2);
  EXPECT_EQ(run_scan("", "fig 2>&1", out), 2);
  EXPECT_EQ(run_scan("", "sweep 2>&1", out), 2);
}

}  // namespace
}  // namespace certquic::test

int main(int argc, char** argv) {
  certquic::test::parse_update_golden_flag(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
