// The §5 client-side mitigation: a cache of per-server response sizes
// that lets a client pick an Initial size large enough for the server's
// flight to fit within 3x — converting Multi-RTT into 1-RTT handshakes
// without certificate compression.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "engine/engine.hpp"
#include "internet/model.hpp"

namespace certquic::internet {
class model;
}

namespace certquic::core {

/// Client-side cache of observed server first-flight sizes.
class initial_size_tuner {
 public:
  /// Client Initial bounds: RFC minimum and the local MTU ceiling.
  static constexpr std::size_t kMinInitial = 1200;
  static constexpr std::size_t kMaxInitial = 1472;

  /// Records the server's observed pre-validation requirement (bytes
  /// the server needed to deliver its full first flight).
  void record(const std::string& domain, std::size_t server_flight_bytes);

  /// Recommends an Initial size: ceil(flight/3) clamped to the legal
  /// range; kMinInitial for unknown servers.
  [[nodiscard]] std::size_t recommend(const std::string& domain) const;

  /// The recommendation arithmetic for a known flight size (shared with
  /// the engine-sharded study, which keeps no cross-thread cache).
  [[nodiscard]] static std::size_t recommend_for(
      std::size_t server_flight_bytes);

  [[nodiscard]] std::size_t size() const noexcept { return cache_.size(); }

 private:
  std::unordered_map<std::string, std::size_t> cache_;
};

/// Outcome of the tuner demonstration.
struct tuner_result {
  std::size_t services = 0;
  std::size_t multi_rtt_default = 0;   // with kMinInitial Initials
  std::size_t multi_rtt_tuned = 0;     // second visit, tuned Initials
  std::size_t converted_to_one_rtt = 0;
};

/// Runs the two-visit experiment: first contact with minimum-size
/// Initials (populating the cache), second contact with tuned sizes.
/// Each service's visit pair is an independent job on the engine pool.
[[nodiscard]] tuner_result run_tuner_study(const internet::model& m,
                                           std::size_t max_services,
                                           const engine::options& exec = {});

}  // namespace certquic::core
