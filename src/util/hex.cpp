#include "util/hex.hpp"

namespace certquic {
namespace {

constexpr char kDigits[] = "0123456789abcdef";

}  // namespace

std::string to_hex(bytes_view data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

}  // namespace certquic
