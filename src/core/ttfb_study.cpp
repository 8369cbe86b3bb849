#include "core/ttfb_study.hpp"

#include "engine/probe_plan.hpp"
#include "util/errors.hpp"

namespace certquic::core {

std::vector<net::network_condition> default_network_conditions() {
  return {
      // The historical simulator path every other study runs under.
      {.name = "ideal", .rtt = net::milliseconds(20), .loss_rate = 0.0,
       .bandwidth_bps = 0},
      // Wired access: fast, clean, but serialization is no longer free.
      {.name = "broadband", .rtt = net::milliseconds(30), .loss_rate = 0.0,
       .bandwidth_bps = 100'000'000},
      // Cellular: longer path, 1% loss makes PTOs part of the timeline.
      {.name = "mobile", .rtt = net::milliseconds(60), .loss_rate = 0.01,
       .bandwidth_bps = 20'000'000},
      // Satellite/rural long-thin pipe: big chains pay for every byte.
      {.name = "constrained", .rtt = net::milliseconds(120),
       .loss_rate = 0.0, .bandwidth_bps = 2'000'000},
  };
}

const ttfb_cell& ttfb_study_result::cell(x509::pq_profile p,
                                         std::size_t condition) const {
  // Cells are profile-major: each profile owns one contiguous run of
  // conditions.size() cells.
  for (std::size_t i = 0; condition < conditions.size() &&
                          i + conditions.size() <= cells.size();
       i += conditions.size()) {
    if (cells[i].profile == p) {
      return cells[i + condition];
    }
  }
  throw config_error("ttfb_study_result: no cell for profile " +
                     x509::to_string(p) + " condition " +
                     std::to_string(condition));
}

ttfb_study_result run_ttfb_study(const internet::model& m,
                                 const ttfb_options& opt,
                                 const engine::options& exec) {
  const std::vector<x509::pq_profile> profiles =
      opt.profiles.empty() ? std::vector<x509::pq_profile>(
                                 x509::all_pq_profiles().begin(),
                                 x509::all_pq_profiles().end())
                           : opt.profiles;
  const std::vector<net::network_condition> conditions =
      default_network_conditions();

  ttfb_study_result out;
  out.initial_size = opt.initial_size;
  out.conditions = conditions;

  // Profile-major over the condition grid, classical x ideal first:
  // with base seed and salt at zero, every variant probes each service
  // under its historical record-derived randomness, so the classical x
  // ideal cell consumes randomness matched to run_census and its class
  // counts agree bit-for-bit (tests/ttfb_test pins this).
  engine::probe_plan plan;
  plan.max_services = opt.max_services;
  for (const x509::pq_profile profile : profiles) {
    for (const net::network_condition& condition : conditions) {
      engine::probe_variant v;
      v.initial_size = opt.initial_size;
      v.chain_profile = profile;
      v.network = condition;
      v.measure_ttfb = true;
      plan.variants.push_back(std::move(v));

      ttfb_cell cell;
      cell.profile = profile;
      cell.condition = condition;
      out.cells.push_back(std::move(cell));
    }
  }

  per_variant_sink sink{
      out.cells,
      [](ttfb_cell& cell, const engine::probe_record& pr) {
        if (pr.result.ttfb != 0) {
          cell.ttfb_ms.add(static_cast<double>(pr.result.ttfb) / 1000.0);
        }
      },
      {&ttfb_cell::ttfb_ms}};
  engine::executor{m, exec}.run(plan, sink);
  return out;
}

}  // namespace certquic::core
