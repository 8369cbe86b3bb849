// Minimal fixed-width table rendering for figure / example output.
//
// Every `certquic_scan fig <id>` entry regenerates one of the paper's
// tables or figures as rows of text; this helper keeps their output
// aligned and uniform.
#pragma once

#include <string>
#include <vector>

namespace certquic {

/// Accumulates rows of cells and renders them as an aligned text table.
class text_table {
 public:
  /// Creates a table with the given column headers.
  explicit text_table(std::vector<std::string> headers);

  /// Appends one row; missing cells render empty, extra cells are kept
  /// (the column count grows).
  void add_row(std::vector<std::string> cells);

  /// Number of data rows added so far.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders the table with a header underline, columns padded to the
  /// widest cell, two spaces between columns.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places (std::snprintf "%.*f").
[[nodiscard]] std::string fixed(double v, int digits);

/// Formats a fraction as a percent string, e.g. pct(0.6154, 2) == "61.54%".
[[nodiscard]] std::string pct(double fraction, int digits = 2);

/// Groups digits of an integer for readability, e.g. 272000 -> "272,000".
[[nodiscard]] std::string with_commas(long long v);

}  // namespace certquic
