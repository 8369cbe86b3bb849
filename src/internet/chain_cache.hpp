// Thread-safe memoization of model::chain_of, keyed by (record, fetch
// protocol, chain profile). Chain materialization — synthetic issuance
// plus DER encoding — is the hot path of a driver that walks the same
// TLS sample more than once; certbench's corpus workload sets
// corpus_options::chains, and scan::reach takes one for repeat visits.
// Neither the executor nor the tuner uses it: a multi-variant plan
// fills its own read-only chain table before its probe pass
// (engine/engine.cpp), and the tuner materializes each service's
// chain once for both of its visits, so their probes take no lock.
// Since chain_of is a pure function of the key, concurrent misses may
// race to materialize the same chain; every racer produces identical
// bytes, so the first insert wins and all callers observe the same
// chain.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "internet/model.hpp"

namespace certquic::internet {

class chain_cache {
 public:
  explicit chain_cache(const model& m) : model_(m) {}

  chain_cache(const chain_cache&) = delete;
  chain_cache& operator=(const chain_cache&) = delete;

  /// The chain `rec` serves over `proto` under chain profile `pq`,
  /// materialized at most once per key. Safe to call concurrently from
  /// engine workers.
  [[nodiscard]] std::shared_ptr<const x509::chain> chain_of(
      const service_record& rec, fetch_protocol proto,
      x509::pq_profile pq = x509::pq_profile::classical) const;

  /// Distinct chains held.
  [[nodiscard]] std::size_t size() const;
  /// Lookups served from the cache / materializations performed.
  [[nodiscard]] std::size_t hits() const noexcept { return hits_.load(); }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_.load(); }

 private:
  const model& model_;
  mutable std::mutex mu_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<const x509::chain>>
      chains_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

/// Cache-aware fetch shared by every chain consumer: goes through
/// `cache` when one is provided, else materializes directly. Keeps the
/// optional-cache dispatch in one place. A cached chain is returned as a
/// copy that shares every certificate with the cached one, so a hit
/// costs reference-count bumps, not a DER copy.
[[nodiscard]] inline x509::chain fetch_chain(
    const model& m, const chain_cache* cache, const service_record& rec,
    fetch_protocol proto,
    x509::pq_profile pq = x509::pq_profile::classical) {
  return cache != nullptr ? *cache->chain_of(rec, proto, pq)
                          : m.chain_of(rec, proto, pq);
}

}  // namespace certquic::internet
