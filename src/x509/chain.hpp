// Certificate chains: leaf-first sequences as delivered by TLS servers.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "x509/certificate.hpp"

namespace certquic::x509 {

/// A server certificate chain, leaf first, as sent in the TLS
/// Certificate message. Every certificate is held through a
/// shared_ptr: parents (intermediates, and sometimes superfluous roots)
/// are shared between services since real deployments reuse the exact
/// same intermediate DER bytes, and the leaf is shared between copies
/// of the chain, so copying a cached chain only bumps reference counts.
class chain {
 public:
  chain() = default;
  /// Builds a chain from a leaf plus parent certificates.
  chain(std::shared_ptr<const certificate> leaf,
        std::vector<std::shared_ptr<const certificate>> parents);

  [[nodiscard]] bool empty() const noexcept { return leaf_ == nullptr; }
  [[nodiscard]] const certificate& leaf() const;
  [[nodiscard]] const std::vector<std::shared_ptr<const certificate>>&
  parents() const noexcept {
    return parents_;
  }

  /// Number of certificates (leaf + parents).
  [[nodiscard]] std::size_t depth() const noexcept {
    return (leaf_ ? 1 : 0) + parents_.size();
  }

  /// Sum of DER sizes of all certificates — the "certificate chain size"
  /// measured throughout the paper (Figs. 6 and 7).
  [[nodiscard]] std::size_t wire_size() const noexcept;

  /// Sum of DER sizes excluding the leaf (the "parent chain" whose
  /// choice the service operator does not control).
  [[nodiscard]] std::size_t parent_wire_size() const noexcept;

  /// Concatenated DER of every certificate, leaf first; input to the
  /// certificate-compression experiments.
  [[nodiscard]] bytes concatenated_der() const;

  /// True when the chain includes a self-signed (trust-anchor)
  /// certificate — the superfluous-root anti-pattern from §4.2.
  [[nodiscard]] bool includes_trust_anchor() const noexcept;

  /// Visits every certificate, leaf first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (leaf_) {
      fn(*leaf_);
    }
    for (const auto& parent : parents_) {
      fn(*parent);
    }
  }

 private:
  std::shared_ptr<const certificate> leaf_;
  std::vector<std::shared_ptr<const certificate>> parents_;
};

}  // namespace certquic::x509
