// google-benchmark micro-benchmarks for library primitives: varint
// encoding and LZ compression, which no benchmark workload exercises
// (none compresses). Chain issuance, TLS flight build, datagram parse
// and whole-handshake cost are measured by the benchmark harness
// instead (certbench --trace 1: internet.chain_of_us,
// tls.server_flight_us, quic.parse_us, scan.probe_us_p50).
#include <benchmark/benchmark.h>

#include "ca/ecosystem.hpp"
#include "compress/codec.hpp"
#include "quic/varint.hpp"

namespace {

using namespace certquic;

void BM_VarintEncode(benchmark::State& state) {
  rng r{1};
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) {
    v = r.uniform(0, quic::kVarintMax);
  }
  for (auto _ : state) {
    buffer_writer w;
    for (const auto v : values) {
      quic::write_varint(w, v);
    }
    benchmark::DoNotOptimize(w.view().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_VarintEncode);

void BM_LzCompressChain(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  rng r{3};
  const auto chain = eco.issue(eco.profile("le-r3-x1cross"), "z.example", r);
  const bytes payload = chain.concatenated_der();
  const compress::codec codec{compress::algorithm::brotli,
                              eco.compression_dictionary()};
  for (auto _ : state) {
    const bytes compressed = codec.compress(payload);
    benchmark::DoNotOptimize(compressed.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_LzCompressChain);

void BM_LzRoundTrip(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  rng r{4};
  const auto chain = eco.issue(eco.profile("cloudflare"), "rt.example", r);
  const bytes payload = chain.concatenated_der();
  const compress::codec codec{compress::algorithm::zstd,
                              eco.compression_dictionary()};
  for (auto _ : state) {
    const bytes compressed = codec.compress(payload);
    const bytes restored = codec.decompress(compressed);
    benchmark::DoNotOptimize(restored.size());
  }
}
BENCHMARK(BM_LzRoundTrip);

}  // namespace

BENCHMARK_MAIN();
