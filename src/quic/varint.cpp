#include "quic/varint.hpp"

#include <string>

#include "util/errors.hpp"

namespace certquic::quic {

void varint_overflow(std::uint64_t v) {
  throw codec_error("varint overflow: " + std::to_string(v));
}

}  // namespace certquic::quic
