// Shared pieces of the certquic benchmark driver (certbench.cpp runs
// the workloads, trace.cpp measures the per-layer ledger). Everything
// here lives on the benchmark side: the library is called only through
// its public headers, and the clock never enters src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine/probe_plan.hpp"
#include "engine/sink.hpp"
#include "internet/model.hpp"

namespace certbench {

using bench_clock = std::chrono::steady_clock;

struct metric {
  double value = 0.0;
  std::string unit;
};
/// Metric name -> value; ordered so the printed report is stable.
using metric_map = std::map<std::string, metric>;

/// One named correctness check of a run.
struct check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Sixteen lowercase hex digits.
[[nodiscard]] std::string hex16(std::uint64_t v);

/// Forwards every call to `next` and sums the time spent inside its
/// on_record — the benchmark's span around a sink.
class timing_sink final : public certquic::engine::observation_sink {
 public:
  explicit timing_sink(certquic::engine::observation_sink& next)
      : next_(next) {}

  void on_begin(const certquic::engine::probe_plan& plan,
                std::size_t sampled) override {
    next_.on_begin(plan, sampled);
  }
  void on_record(const certquic::engine::probe_record& rec) override {
    const auto t0 = bench_clock::now();
    next_.on_record(rec);
    busy_ += bench_clock::now() - t0;
  }
  void on_end() override { next_.on_end(); }

  [[nodiscard]] double busy_seconds() const {
    return std::chrono::duration<double>(busy_).count();
  }

 private:
  certquic::engine::observation_sink& next_;
  bench_clock::duration busy_{0};
};

/// What the probe-layer ledger replays: `services` (indices into the
/// model's records) crossed with every variant of `plan`, variant-major,
/// exactly as reach_backend enumerates units.
struct ledger_input {
  const certquic::internet::model& model;
  const certquic::engine::probe_plan& plan;
  std::vector<std::uint32_t> services;
  /// Protocol the workload materializes chains over (chain_of timing).
  certquic::internet::fetch_protocol chain_protocol =
      certquic::internet::fetch_protocol::quic;
  /// Where the spill battery writes its shard files.
  std::filesystem::path scratch;
};

/// The serial replica, codec, chain and spill measurements shared by
/// every workload's traced run. Fills per-layer metrics into `out` and
/// appends its fidelity checks to `checks`. Returns the mean serial
/// reach::probe time in microseconds.
double probe_layer_ledger(const ledger_input& in, metric_map& out,
                          std::vector<check>& checks);

}  // namespace certbench
