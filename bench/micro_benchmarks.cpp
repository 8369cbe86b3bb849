// google-benchmark micro-benchmarks for library primitives: varint
// encoding, certificate issuance, LZ compression and TLS flight build.
// Datagram parse and whole-handshake cost are measured by the benchmark
// harness instead (certbench --trace 1: quic.parse_us, scan.probe_us_p50).
#include <benchmark/benchmark.h>

#include "ca/ecosystem.hpp"
#include "compress/codec.hpp"
#include "quic/varint.hpp"
#include "tls/handshake.hpp"

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

void BM_CertificateIssue(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  const auto& profile = eco.profile("le-r3-x1cross");
  rng r{2};
  for (auto _ : state) {
    const auto chain = eco.issue(profile, "bench.example", r);
    benchmark::DoNotOptimize(chain.wire_size());
  }
}
BENCHMARK(BM_CertificateIssue);

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

void BM_ServerFlightBuild(benchmark::State& state) {
  auto eco = ca::ecosystem::make();
  rng r{5};
  const auto chain = eco.issue(eco.profile("sectigo"), "f.example", r);
  for (auto _ : state) {
    const auto flight = tls::build_server_flight(chain, nullptr, r);
    benchmark::DoNotOptimize(flight.total_size());
  }
}
BENCHMARK(BM_ServerFlightBuild);

}  // namespace

BENCHMARK_MAIN();
