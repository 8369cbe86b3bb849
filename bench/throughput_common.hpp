// Shared scaffolding for the bench/throughput_* suite: each binary
// drives one engine path (census, corpus, spill/merge, epochs) through
// engine::parallel_ordered at full thread count, times the run, and
// reports probes/sec and records/sec. When CERTQUIC_BENCH_JSON names a
// file, one machine-readable JSON object is written there (one line,
// so tools/verify.sh --bench can assemble the per-path objects into
// one BENCH_throughput.json). Schema per object:
//   {"bench": "throughput", "path": <census|corpus|spill|epochs>,
//    "threads": N, "probes": P, "records": R, "wall_seconds": W,
//    "probes_per_sec": P/W, "records_per_sec": R/W}
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "engine/engine.hpp"

namespace certquic::bench {

/// One timed engine path.
struct throughput_row {
  const char* path = "";        // census | corpus | spill | epochs
  std::size_t probes = 0;       // probe executions (work units)
  std::size_t records = 0;      // records streamed into the sink
  double wall_seconds = 0.0;
  std::size_t threads = 0;
};

class wall_timer {
 public:
  wall_timer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline double per_sec(std::size_t count, double wall_seconds) {
  return wall_seconds > 0.0 ? static_cast<double>(count) / wall_seconds : 0.0;
}

/// Human-readable report on stdout (rates vary run to run — these
/// binaries are deliberately not golden-pinned).
inline void print_throughput(const throughput_row& row) {
  std::printf("\npath=%s threads=%zu\n", row.path, row.threads);
  std::printf("  probes : %10zu  (%12.0f/sec)\n", row.probes,
              per_sec(row.probes, row.wall_seconds));
  std::printf("  records: %10zu  (%12.0f/sec)\n", row.records,
              per_sec(row.records, row.wall_seconds));
  std::printf("  wall   : %10.3f s\n", row.wall_seconds);
}

/// One-line JSON object to $CERTQUIC_BENCH_JSON, if set.
inline void write_throughput_json(const throughput_row& row) {
  const char* json_path = std::getenv("CERTQUIC_BENCH_JSON");
  if (json_path == nullptr || *json_path == '\0') {
    return;
  }
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "throughput bench: cannot write %s\n", json_path);
    return;
  }
  std::fprintf(f,
               "{\"bench\": \"throughput\", \"path\": \"%s\", "
               "\"threads\": %zu, \"probes\": %zu, \"records\": %zu, "
               "\"wall_seconds\": %.3f, \"probes_per_sec\": %.0f, "
               "\"records_per_sec\": %.0f}\n",
               row.path, row.threads, row.probes, row.records,
               row.wall_seconds, per_sec(row.probes, row.wall_seconds),
               per_sec(row.records, row.wall_seconds));
  std::fclose(f);
}

inline void finish(throughput_row row) {
  print_throughput(row);
  write_throughput_json(row);
}

}  // namespace certquic::bench
