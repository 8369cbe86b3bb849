// Byte-level view of a spill v4 file for tests that damage one on
// purpose: the file is split into its header, record and footer byte
// spans by walking the varint length prefixes only, so a test can drop,
// cut, move or swap whole records and rewrite the footer without going
// through the decoder it is testing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "quic/varint.hpp"
#include "util/buffer.hpp"
#include "util/bytes.hpp"

namespace certquic::test {

/// A spill file as byte spans; join() is the file again.
struct spill_bytes {
  bytes header;                // magic, variant count, sample count
  std::vector<bytes> records;  // each span: length prefix, then body
  bytes footer;                // zero length, record count, "end\n"

  [[nodiscard]] bytes join() const {
    bytes out = header;
    for (const bytes& rec : records) {
      append(out, rec);
    }
    append(out, footer);
    return out;
  }
};

inline bytes read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

inline void write_file_bytes(const std::filesystem::path& path,
                             bytes_view data) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// The footer a complete file with `records` records ends with.
inline bytes spill_footer(std::uint64_t records) {
  buffer_writer w;
  quic::write_varint(w, 0);
  quic::write_varint(w, records);
  w.raw(std::string_view{"end\n"});
  return std::move(w).take();
}

/// Splits a well-formed v4 spill; throws std::runtime_error when the
/// prefixes do not walk to a footer.
inline spill_bytes split_spill(bytes_view file) {
  constexpr std::size_t kMagicSize = 8;
  buffer_reader r{file};
  r.skip(kMagicSize);
  (void)quic::read_varint(r);  // variant count
  (void)quic::read_varint(r);  // sample count
  spill_bytes out;
  out.header.assign(file.begin(),
                    file.begin() + static_cast<std::ptrdiff_t>(r.position()));
  while (!r.empty()) {
    const std::size_t start = r.position();
    const std::uint64_t length = quic::read_varint(r);
    if (length == 0) {
      out.footer.assign(file.begin() + static_cast<std::ptrdiff_t>(start),
                        file.end());
      return out;
    }
    r.skip(length);
    out.records.emplace_back(
        file.begin() + static_cast<std::ptrdiff_t>(start),
        file.begin() + static_cast<std::ptrdiff_t>(r.position()));
  }
  throw std::runtime_error("split_spill: no footer");
}

/// Offset of the class byte inside a record span: past the length
/// prefix and the service and variant indices. The flag byte follows.
inline std::size_t class_byte_offset(bytes_view record) {
  buffer_reader r{record};
  for (int varint = 0; varint < 3; ++varint) {
    (void)quic::read_varint(r);
  }
  return r.position();
}

/// Re-frames a record span around a new body (fresh length prefix).
inline bytes frame_record(bytes_view body) {
  buffer_writer w;
  quic::write_varint(w, body.size());
  w.raw(body);
  return std::move(w).take();
}

/// The body of a record span (without its length prefix).
inline bytes record_body(bytes_view record) {
  buffer_reader r{record};
  (void)quic::read_varint(r);
  return {record.begin() + static_cast<std::ptrdiff_t>(r.position()),
          record.end()};
}

inline spill_bytes read_spill_bytes(const std::filesystem::path& path) {
  return split_spill(read_file_bytes(path));
}

inline void write_spill_bytes(const std::filesystem::path& path,
                              const spill_bytes& spill) {
  write_file_bytes(path, spill.join());
}

}  // namespace certquic::test
