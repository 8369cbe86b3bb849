// Hex encoding helpers for diagnostics and certificate serial rendering.
#pragma once

#include <string>

#include "util/bytes.hpp"

namespace certquic {

/// Lower-case hex string of `data` ("" for empty input).
[[nodiscard]] std::string to_hex(bytes_view data);

}  // namespace certquic
