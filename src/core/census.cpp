#include "core/census.hpp"

#include <algorithm>

#include "engine/engine.hpp"

namespace certquic::core {

std::vector<std::size_t> initial_size_sweep() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1200; s + 10 <= 1472; s += 10) {
    sizes.push_back(s);
  }
  sizes.push_back(1472);
  return sizes;
}

census_result run_census(const internet::model& m, const census_options& opt,
                         const engine::options& exec) {
  census_result out;
  out.initial_size = opt.initial_size;

  engine::probe_variant variant;
  variant.initial_size = opt.initial_size;
  const engine::probe_plan plan =
      engine::probe_plan::single(std::move(variant), opt.max_services);

  per_variant_sink sink{
      out,
      [&](census_result& c, const engine::probe_record& pr) {
        const scan::probe_result& probe = pr.result;
        ++c.group_counts[m.rank_group(pr.record)]
                        [static_cast<std::size_t>(probe.cls)];
        if (!opt.collect_payload_details) {
          return;
        }
        const quic::observation& obs = probe.obs;
        if (obs.handshake_complete) {
          c.first_burst_amplification.add(obs.first_burst_amplification());
        }
        switch (probe.cls) {
          case scan::handshake_class::multi_rtt: {
            c.multi_rtt_payload.emplace_back(obs.bytes_received_total,
                                             obs.tls_bytes_received);
            if (obs.tls_bytes_received > 3 * obs.bytes_sent_first_flight) {
              ++c.multi_tls_exceeding_limit;
            }
            const std::size_t non_tls =
                obs.bytes_received_total - obs.tls_bytes_received;
            c.max_non_tls_bytes = std::max(c.max_non_tls_bytes, non_tls);
            break;
          }
          case scan::handshake_class::amplification: {
            ++c.amplifying;
            if (pr.record.behavior == internet::behavior_kind::cloudflare) {
              ++c.amplifying_cloudflare;
              c.cloudflare_padding.add(
                  static_cast<double>(obs.padding_bytes_first_burst));
            }
            break;
          }
          default:
            break;
        }
      },
      {&census_result::first_burst_amplification,
       &census_result::cloudflare_padding}};
  engine::executor{m, exec}.run(plan, sink);
  return out;
}

ack_sweep_result run_ack_sweep(const internet::model& m,
                               std::size_t max_services,
                               const engine::options& exec) {
  // Base seed and salt stay zero: every variant probes a service under
  // its historical record-derived randomness, so the three policies
  // form matched pairs and their deltas isolate the client behaviour.
  engine::probe_plan plan;
  plan.max_services = max_services;
  plan.sweep_ack_policies();

  ack_sweep_result out;
  out.slices.resize(plan.variants.size());
  for (std::size_t v = 0; v < plan.variants.size(); ++v) {
    out.slices[v].policy = plan.variants[v].ack;
  }
  per_variant_sink sink{
      out.slices,
      [](ack_census_slice& slice, const engine::probe_record& pr) {
        const quic::observation& obs = pr.result.obs;
        if (obs.handshake_complete) {
          slice.handshake_ms.add(
              static_cast<double>(obs.complete_time - obs.start_time) /
              1000.0);
        }
      },
      {&ack_census_slice::handshake_ms}};
  engine::executor{m, exec}.run(plan, sink);
  return out;
}

}  // namespace certquic::core
