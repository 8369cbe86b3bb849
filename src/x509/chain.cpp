#include "x509/chain.hpp"

#include "util/errors.hpp"

namespace certquic::x509 {

chain::chain(std::shared_ptr<const certificate> leaf,
             std::shared_ptr<const parent_list> parents)
    : leaf_(std::move(leaf)), parents_(std::move(parents)) {}

const certificate& chain::leaf() const {
  if (!leaf_) {
    throw config_error("chain::leaf on empty chain");
  }
  return *leaf_;
}

const parent_list& chain::parents() const noexcept {
  static constinit const parent_list kNone;
  return parents_ ? *parents_ : kNone;
}

std::size_t chain::wire_size() const noexcept {
  std::size_t total = leaf_ ? leaf_->size() : 0;
  for (const auto& parent : parents()) {
    total += parent->size();
  }
  return total;
}

std::size_t chain::parent_wire_size() const noexcept {
  std::size_t total = 0;
  for (const auto& parent : parents()) {
    total += parent->size();
  }
  return total;
}

bytes chain::concatenated_der() const {
  bytes out;
  out.reserve(wire_size());
  for_each([&out](const certificate& cert) { append(out, cert.der()); });
  return out;
}

bool chain::includes_trust_anchor() const noexcept {
  for (const auto& parent : parents()) {
    if (parent->self_signed()) {
      return true;
    }
  }
  return false;
}

}  // namespace certquic::x509
