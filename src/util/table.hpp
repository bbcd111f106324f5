// Plain-text table and CSV rendering for experiment output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace wormsim::util {

/// Accumulates rows of cells and renders either an aligned ASCII table or
/// CSV.  All experiment binaries route their output through this class so
/// every figure reproduction prints in a consistent, diffable format.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();

  Table& cell(const std::string& text);
  Table& cell(double value, int precision = 2);
  Table& cell(std::uint64_t value);
  Table& cell(std::int64_t value);
  Table& cell(int value) { return cell(static_cast<std::int64_t>(value)); }

  /// Aligned, boxless ASCII rendering.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV (no quoting needed for our numeric content).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with Table).
std::string format_double(double value, int precision);

}  // namespace wormsim::util
