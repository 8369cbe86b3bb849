// The paper's figures and tables, and the extension studies', as one
// registry: `certquic_scan fig <id>` runs an entry, and golden_test
// diffs every entry's stdout against tests/golden/<id>.txt.
//
// Scale knobs come from the environment:
//   CERTQUIC_DOMAINS    — population size   (default 30000; paper: 1M)
//   CERTQUIC_SEED       — generator seed    (default 42)
//   CERTQUIC_SAMPLE     — max probes per experiment step (default varies)
//   CERTQUIC_PQ_PROFILE — tab02: chain profile (default classical)
// A malformed count knob fails closed with usage_error.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace certquic::figures {

/// One catalog row. `run` prints the figure or table to stdout and
/// returns the process exit status.
struct entry {
  std::string_view id;
  int (*run)();
};

/// Every entry.
[[nodiscard]] std::span<const entry> registry();

/// The entry named `id`, or nullptr.
[[nodiscard]] const entry* find(std::string_view id);

/// A malformed knob or flag; the CLI prints it and exits 2.
struct usage_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses `text` as a whole decimal count. Throws usage_error naming
/// `name` (a knob or a flag) on empty, non-digit or overflowing text.
[[nodiscard]] std::uint64_t parse_count(std::string_view text,
                                        std::string_view name);

/// Parses every count knob above, so a malformed one fails before an
/// entry prints anything.
void check_knobs();

/// Removes a disposable directory on scope exit, also when the study
/// that fills it throws.
class temp_dir_cleanup {
 public:
  explicit temp_dir_cleanup(std::string dir) : dir_(std::move(dir)) {}
  temp_dir_cleanup(const temp_dir_cleanup&) = delete;
  temp_dir_cleanup& operator=(const temp_dir_cleanup&) = delete;
  ~temp_dir_cleanup();

 private:
  std::string dir_;  // empty = nothing to clean
};

}  // namespace certquic::figures
