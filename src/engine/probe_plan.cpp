#include "engine/probe_plan.hpp"

#include "util/rng.hpp"

namespace certquic::engine {
namespace {

bool matches(const internet::service_record& rec, service_filter f) {
  switch (f) {
    case service_filter::quic:
      return rec.serves_quic();
    case service_filter::tls:
      return rec.serves_tls();
  }
  return false;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x0000'0100'0000'01b3ULL;
  }
  return h;
}

}  // namespace

std::vector<std::uint32_t> sample_indices(const internet::model& m,
                                          service_filter filter,
                                          std::size_t cap) {
  const auto& records = m.records();
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    if (matches(records[i], filter)) {
      out.push_back(i);
    }
  }
  const std::size_t total = out.size();
  if (cap == 0 || total <= cap) {
    return out;
  }
  // Single-pass striding: compact every stride-th match in place.
  const std::size_t stride = (total + cap - 1) / cap;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < total; i += stride) {
    out[kept++] = out[i];
  }
  out.resize(kept);
  return out;
}

scan::probe_options probe_variant::to_probe_options() const {
  scan::probe_options opt;
  opt.initial_size = initial_size;
  opt.offer_compression = offer_compression;
  opt.capture_certificate = capture_certificate;
  opt.chain_profile = chain_profile;
  opt.send_acks = ack != quic::ack_policy::none;
  opt.ack_delay =
      ack == quic::ack_policy::instant ? 0 : net::milliseconds(1);
  opt.network = network;
  opt.measure_ttfb = measure_ttfb;
  return opt;
}

probe_plan probe_plan::single(probe_variant v, std::size_t max_services,
                              service_filter f) {
  probe_plan plan;
  plan.filter = f;
  plan.max_services = max_services;
  plan.variants.push_back(std::move(v));
  return plan;
}

probe_plan& probe_plan::sweep_initial_sizes(
    const std::vector<std::size_t>& sizes) {
  for (const std::size_t size : sizes) {
    probe_variant v;
    v.initial_size = size;
    variants.push_back(std::move(v));
  }
  return *this;
}

probe_plan& probe_plan::sweep_ack_policies(std::size_t initial_size) {
  for (const quic::ack_policy policy :
       {quic::ack_policy::delayed, quic::ack_policy::instant,
        quic::ack_policy::none}) {
    probe_variant v;
    v.initial_size = initial_size;
    v.ack = policy;
    variants.push_back(std::move(v));
  }
  return *this;
}

probe_plan& probe_plan::sweep_chain_profiles(std::size_t initial_size) {
  for (const x509::pq_profile profile : x509::all_pq_profiles()) {
    probe_variant v;
    v.initial_size = initial_size;
    v.chain_profile = profile;
    variants.push_back(std::move(v));
  }
  return *this;
}

std::uint64_t probe_seed(std::uint64_t base_seed, const std::string& domain,
                         std::uint64_t salt) {
  if (base_seed == 0 && salt == 0) {
    return 0;  // historical record-derived seeding
  }
  std::uint64_t state = base_seed ^ fnv1a64(domain);
  std::uint64_t seed = splitmix64(state);
  state = seed ^ salt;
  seed = splitmix64(state);
  return seed == 0 ? 1 : seed;
}

}  // namespace certquic::engine
