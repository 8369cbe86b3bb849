#include "property.hpp"

#include <algorithm>

#include "quic/varint.hpp"

namespace certquic::test {

std::uint64_t gen_varint_value(rng& r) {
  switch (r.uniform(0, 3)) {
    case 0:
      return r.uniform(0, 63);                      // 1-byte band
    case 1:
      return r.uniform(64, 16383);                  // 2-byte band
    case 2:
      return r.uniform(16384, 1073741823);          // 4-byte band
    default:
      return r.uniform(1073741824, quic::kVarintMax);  // 8-byte band
  }
}

bytes gen_bytes(rng& r, std::size_t min_len, std::size_t max_len) {
  bytes out(r.uniform(min_len, max_len));
  r.fill(out);
  return out;
}

bytes gen_compressible_bytes(rng& r, std::size_t min_len,
                             std::size_t max_len) {
  const std::size_t target = r.uniform(min_len, max_len);
  bytes out;
  out.reserve(target);
  while (out.size() < target) {
    switch (r.uniform(0, 2)) {
      case 0: {  // literal stretch
        bytes lit = gen_bytes(r, 1, 24);
        append(out, lit);
        break;
      }
      case 1: {  // run of one byte
        const auto b = static_cast<std::uint8_t>(r.uniform(0, 255));
        out.insert(out.end(), r.uniform(4, 32), b);
        break;
      }
      default: {  // repeat an earlier slice, the LZ sweet spot
        if (out.empty()) {
          break;
        }
        const std::size_t start = r.uniform(0, out.size() - 1);
        const std::size_t len =
            r.uniform(1, std::min<std::size_t>(out.size() - start, 48));
        // Self-overlapping copies are legal LZ matches; keep the source
        // snapshot to avoid iterator invalidation while appending.
        bytes slice(out.begin() + static_cast<std::ptrdiff_t>(start),
                    out.begin() + static_cast<std::ptrdiff_t>(start + len));
        append(out, slice);
        break;
      }
    }
  }
  out.resize(target);
  return out;
}

asn1::oid_arcs gen_oid(rng& r, std::size_t max_extra_arcs) {
  asn1::oid_arcs arcs;
  const auto first = static_cast<std::uint32_t>(r.uniform(0, 2));
  arcs.push_back(first);
  if (first < 2) {
    arcs.push_back(static_cast<std::uint32_t>(r.uniform(0, 39)));
  } else {
    arcs.push_back(static_cast<std::uint32_t>(r.uniform(0, 999)));
  }
  const std::size_t extra = r.uniform(0, max_extra_arcs);
  for (std::size_t i = 0; i < extra; ++i) {
    // Mix small arcs with multi-septet ones to exercise base-128 packing.
    arcs.push_back(static_cast<std::uint32_t>(
        r.chance(0.5) ? r.uniform(0, 127) : r.uniform(128, 0xffffffffULL)));
  }
  return arcs;
}

std::string gen_printable(rng& r, std::size_t min_len, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 '()+,-./:=?";
  const std::size_t len = r.uniform(min_len, max_len);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[r.uniform(0, sizeof(kAlphabet) - 2)]);
  }
  return out;
}

std::int64_t gen_int64(rng& r) {
  const auto magnitude = [&]() -> std::uint64_t {
    switch (r.uniform(0, 3)) {
      case 0:
        return r.uniform(0, 127);
      case 1:
        return r.uniform(128, 65535);
      case 2:
        return r.uniform(65536, 0xffffffffULL);
      default:
        return r.uniform(0x100000000ULL, 0x7fffffffffffffffULL);
    }
  }();
  const auto v = static_cast<std::int64_t>(magnitude);
  return r.chance(0.5) ? -v : v;
}

}  // namespace certquic::test
