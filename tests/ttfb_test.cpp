// Tier-1 suite for the time-domain TTFB study: the classical x ideal
// cell must reproduce the census class counts exactly (matched
// randomness: measuring time must not move the size-domain numbers),
// the ideal path must sit on the RTT ladder, and the spill format must
// round-trip the handshake timeline. engine_test's EnginePins harness
// pins the profile x condition sweep at 1 and 8 threads.
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/census.hpp"
#include "core/ttfb_study.hpp"
#include "engine/engine.hpp"
#include "engine/spill.hpp"

namespace certquic::core {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  return m;
}

ttfb_study_result run_study() {
  ttfb_options opt;
  opt.max_services = 150;
  return run_ttfb_study(shared_model(), opt);
}

TEST(TtfbStudy, ClassicalIdealCellMatchesCensusCounts) {
  // The classical x ideal cell probes the census population under the
  // census's record-derived randomness; requesting one object after
  // the handshake must not perturb a single classification. This is
  // the matched-randomness contract that makes TTFB an overlay on the
  // existing size-domain results rather than a separate experiment.
  const auto study = run_study();
  const auto& cell = study.cell(x509::pq_profile::classical, 0);
  ASSERT_EQ(cell.condition.name, "ideal");

  census_options copt;
  copt.max_services = 150;
  copt.collect_payload_details = false;
  const auto census = run_census(shared_model(), copt);

  EXPECT_EQ(cell.probed, census.probed);
  EXPECT_EQ(cell.counts, census.counts);
  // Every 1-RTT and multi-RTT handshake went on to fetch the object.
  EXPECT_EQ(cell.completed(),
            cell.count(scan::handshake_class::one_rtt) +
                cell.count(scan::handshake_class::multi_rtt) +
                cell.count(scan::handshake_class::amplification) +
                cell.count(scan::handshake_class::retry));
}

TEST(TtfbStudy, TtfbIsRttLadderOnIdealPath) {
  // On the loss-free, unconstrained path the timeline is exact: a
  // 1-RTT handshake fetches in 2 RTT + ack delay (41 ms), one extra
  // round trip per additional flight. Every observed TTFB must sit on
  // that ladder.
  const auto study = run_study();
  const auto& cell = study.cell(x509::pq_profile::classical, 0);
  ASSERT_FALSE(cell.ttfb_ms.empty());
  EXPECT_DOUBLE_EQ(cell.ttfb_ms.min(), 41.0);
  const double steps = (cell.ttfb_ms.max() - 41.0) / 21.0;
  EXPECT_DOUBLE_EQ(steps, std::round(steps));
}

TEST(TtfbStudy, SpillRoundTripsTimeline) {
  const auto& m = shared_model();
  engine::probe_plan plan;
  plan.max_services = 40;
  engine::probe_variant v;
  v.measure_ttfb = true;
  v.network = default_network_conditions()[3];  // constrained
  plan.variants.push_back(v);

  const std::string path =
      (std::filesystem::temp_directory_path() / "certquic_ttfb.spill")
          .string();

  std::vector<net::duration> direct;
  engine::callback_sink direct_sink{[&](const engine::probe_record& pr) {
    direct.push_back(pr.ttfb());
  }};
  const engine::executor eng{m, {.threads = 2}};
  eng.run(plan, direct_sink);
  ASSERT_GT(direct.size(), 0u);
  bool any_nonzero = false;
  for (const net::duration d : direct) {
    any_nonzero |= d != 0;
  }
  ASSERT_TRUE(any_nonzero) << "no probe measured a TTFB — nothing to pin";

  engine::spill_sink spill{path};
  eng.run(plan, spill);

  std::vector<net::duration> replayed;
  engine::callback_sink replay_sink{[&](const engine::probe_record& pr) {
    replayed.push_back(pr.ttfb());
  }};
  const engine::spill_reader reader{m, plan};
  reader.replay(path, replay_sink);

  EXPECT_EQ(replayed, direct);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace certquic::core
