// Test helper: runs a der_writer callback and returns the bytes it
// wrote, so known-answer tests can compare one element at a time.
#pragma once

#include <utility>

#include "asn1/der.hpp"
#include "util/bytes.hpp"

namespace certquic::test {

/// encode([&](asn1::der_writer& w) { w.integer(5); }) == {0x02, 0x01, 0x05}.
template <typename Write>
[[nodiscard]] bytes encode(Write&& write) {
  asn1::der_writer w;
  write(w);
  return std::move(w).take();
}

}  // namespace certquic::test
