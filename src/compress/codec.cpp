#include "compress/codec.hpp"

#include "util/errors.hpp"

namespace certquic::compress {

std::string to_string(algorithm a) {
  switch (a) {
    case algorithm::zlib:
      return "zlib";
    case algorithm::brotli:
      return "brotli";
    case algorithm::zstd:
      return "zstd";
  }
  throw config_error("unknown compression algorithm");
}

codec::codec(algorithm a, bytes_view dictionary)
    : alg_(a), dictionary_(dictionary) {
  switch (alg_) {
    case algorithm::brotli:
      // Large window, full shared dictionary, patient matcher.
      params_.window = 1 << 22;
      params_.max_dictionary = 1 << 22;
      params_.good_enough = 2048;
      break;
    case algorithm::zlib:
      // DEFLATE's 32 KiB window also caps usable dictionary.
      params_.window = 1 << 15;
      params_.max_dictionary = 1 << 15;
      params_.good_enough = 258;
      break;
    case algorithm::zstd:
      // Large window but a slightly less patient match search.
      params_.window = 1 << 22;
      params_.max_dictionary = 1 << 22;
      params_.good_enough = 512;
      break;
  }
}

bytes codec::compress(bytes_view input) const {
  return lz_compress(input, dictionary_, params_);
}

bytes codec::decompress(bytes_view data) const {
  // The decoder only ever sees distances within window+output, so the
  // (possibly truncated) dictionary suffix used during compression and
  // the full dictionary agree on every reachable byte.
  return lz_decompress(data, dictionary_);
}

double codec::savings(bytes_view input) const {
  if (input.empty()) {
    return 0.0;
  }
  const bytes compressed = compress(input);
  const double original = static_cast<double>(input.size());
  return 1.0 - static_cast<double>(compressed.size()) / original;
}

}  // namespace certquic::compress
