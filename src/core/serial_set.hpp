// The Table 2 dedupe set: the 16-byte certificate serials the corpus
// fold has already counted.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace certquic::core {

/// A set of 16-byte serials in one flat table: open addressing with
/// linear probing over a power-of-two number of slots, doubled before
/// it is half full. Issuance draws serials at random, so their bytes,
/// mixed once, are the hash. An all-zero slot is empty; the all-zero
/// serial itself is kept beside the table.
class serial_set {
 public:
  using serial = std::array<std::uint8_t, 16>;

  /// Adds `s`; true when it was not a member yet.
  bool insert(const serial& s) {
    if (s == serial{}) {
      const bool added = !has_zero_;
      has_zero_ = true;
      return added;
    }
    if (2 * (used_ + 1) > slots_.size()) {
      grow();
    }
    if (!place(s)) {
      return false;
    }
    ++used_;
    return true;
  }

  /// Number of members.
  [[nodiscard]] std::size_t size() const noexcept {
    return used_ + (has_zero_ ? 1 : 0);
  }

 private:
  static constexpr std::size_t kFirstSlots = 64;

  /// Puts `s` in its slot unless it is there already; true when put.
  bool place(const serial& s) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(s) & mask;; i = (i + 1) & mask) {
      serial& slot = slots_[i];
      if (slot == s) {
        return false;
      }
      if (slot == serial{}) {
        slot = s;
        return true;
      }
    }
  }

  void grow() {
    std::vector<serial> old(std::max(kFirstSlots, 2 * slots_.size()));
    old.swap(slots_);  // slots_ is now the larger, empty table
    for (const serial& s : old) {
      if (s != serial{}) {
        place(s);
      }
    }
  }

  static std::size_t home(const serial& s) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::memcpy(&lo, s.data(), 8);
    std::memcpy(&hi, s.data() + 8, 8);
    const std::uint64_t h = (lo ^ (hi * 0x9e3779b97f4a7c15ULL)) *
                            0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  std::vector<serial> slots_;
  std::size_t used_ = 0;
  bool has_zero_ = false;
};

}  // namespace certquic::core
