// Quickstart: build a tiny synthetic Internet, describe a probe plan,
// run it on the experiment engine, and aggregate through composable
// observation sinks — the three moving parts every study in this
// repository is built from. Start here.
#include <cstdio>
#include <filesystem>

#include "engine/engine.hpp"
#include "engine/spill.hpp"
#include "internet/model.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace certquic;

  // 1. Generate a small population (deterministic for a given seed).
  const auto model = internet::model::generate({.domains = 2000, .seed = 7});
  std::printf("generated %zu domains\n", model.domain_count());

  // 2. Describe *what* to measure: a probe plan is a deterministic
  //    service sample crossed with client-configuration variants. Here:
  //    every QUIC service once, with a browser-sized Initial.
  engine::probe_plan plan =
      engine::probe_plan::single({.initial_size = 1362});

  // 3. Describe *what to keep*: sinks receive one record per probe, in
  //    plan order, wrapped in an on_begin/on_end lifecycle. Sinks
  //    compose — here a tee fans the stream into (a) a table of the
  //    first probe per server-behaviour archetype, (b) a spill file on
  //    disk, the out-of-core path for million-domain sweeps.
  text_table table({"domain", "chain", "class", "sent", "received",
                    "first-burst ampl", "RTT extra"});
  bool seen[6] = {};
  engine::callback_sink tabulate{[&](const engine::probe_record& pr) {
    const auto kind = static_cast<std::size_t>(pr.record.behavior);
    if (seen[kind]) {
      return;
    }
    seen[kind] = true;
    const quic::observation& obs = pr.result.obs;
    table.add_row({pr.record.domain,
                   std::string{ca::to_string(pr.record.profile)},
                   scan::to_string(pr.result.cls),
                   std::to_string(obs.bytes_sent_total),
                   std::to_string(obs.bytes_received_total),
                   fixed(obs.first_burst_amplification(), 2) + "x",
                   std::to_string(obs.acks_before_complete)});
  }};
  const std::string spill_path =
      (std::filesystem::temp_directory_path() / "quickstart_spill.txt")
          .string();
  engine::spill_sink spill{spill_path};
  engine::tee_sink sinks{{&tabulate, &spill}};

  // 4. Run it. The executor shards the plan across a thread pool
  //    (CERTQUIC_THREADS; parallel by default) — one fresh simulated
  //    handshake per probe — and streams the
  //    results back in deterministic plan order, so this output is
  //    bit-identical at any thread count.
  engine::executor{model}.run(plan, sinks);
  std::printf("\n%s", table.render().c_str());

  // 5. Re-aggregate without re-probing: replay the spill file through
  //    any other sink — here one that just counts completed handshakes
  //    behind a filter.
  std::size_t completed = 0;
  engine::callback_sink count{
      [&](const engine::probe_record&) { ++completed; }};
  engine::filter_sink only_completed{
      count, [](const engine::probe_record& pr) {
        return pr.result.obs.handshake_complete;
      }};
  const std::size_t replayed =
      engine::spill_reader{model, plan}.replay(spill_path, only_completed);
  std::printf(
      "\nspilled %zu probe records to disk; replayed them: %zu/%zu "
      "handshakes completed\n",
      spill.records_written(), completed, replayed);
  std::filesystem::remove(spill_path);

  // 6. Look at one served certificate chain.
  for (const auto& rec : model.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    const auto chain = model.chain_of(rec, internet::fetch_protocol::quic);
    std::printf("\nchain served by %s (%zu certificates, %zu bytes):\n",
                rec.domain.c_str(), chain.depth(), chain.wire_size());
    chain.for_each([](const x509::certificate& cert) {
      std::printf("  %s\n", cert.describe().c_str());
    });
    break;
  }
  std::printf(
      "\nNext: run `certquic_scan fig <id>` (ids in `certquic_scan "
      "--help`) to regenerate the paper's figures.\n");
  return 0;
}
