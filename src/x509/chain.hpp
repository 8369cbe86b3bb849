// Certificate chains: leaf-first sequences as delivered by TLS servers.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "x509/certificate.hpp"

namespace certquic::x509 {

/// Parent certificates (intermediates, and sometimes superfluous
/// roots) in served order, the leaf's issuer first.
using parent_list = std::vector<std::shared_ptr<const certificate>>;

/// A server certificate chain, leaf first, as sent in the TLS
/// Certificate message. The leaf is held through a shared_ptr and the
/// parents as one immutable, shared list: every chain of a named
/// profile holds its profile's list, since real deployments reuse the
/// exact same intermediate DER bytes. Issuing a chain on a shared list
/// or copying a chain only bumps reference counts.
class chain {
 public:
  chain() = default;
  /// Builds a chain from a leaf plus its parent list (null: none).
  chain(std::shared_ptr<const certificate> leaf,
        std::shared_ptr<const parent_list> parents);

  [[nodiscard]] bool empty() const noexcept { return leaf_ == nullptr; }
  [[nodiscard]] const certificate& leaf() const;
  [[nodiscard]] const parent_list& parents() const noexcept;

  /// Number of certificates (leaf + parents).
  [[nodiscard]] std::size_t depth() const noexcept {
    return (leaf_ ? 1 : 0) + parents().size();
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
    for (const auto& parent : parents()) {
      fn(*parent);
    }
  }

 private:
  std::shared_ptr<const certificate> leaf_;
  std::shared_ptr<const parent_list> parents_;
};

}  // namespace certquic::x509
