// Plain-text, CSV and JSON table rendering for the benchmark harness. Every
// figure/table reproduction prints through this so the output format is
// uniform and machine-extractable.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace geomcast::util {

/// Column-aligned table: add header once, then rows; render as ASCII box or
/// CSV. Cell values are strings; numeric helpers convert via format_number.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; fill it with add_cell/add_number.
  Table& begin_row();
  Table& add_cell(std::string value);
  Table& add_number(double value, int max_decimals = 3);
  Table& add_integer(long long value);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const noexcept { return header_.size(); }
  [[nodiscard]] const std::vector<std::string>& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

  /// Renders an aligned ASCII table with a header separator.
  void print(std::ostream& out) const;
  [[nodiscard]] std::string to_string() const;
  /// Renders RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  void print_csv(std::ostream& out) const;
  [[nodiscard]] std::string to_csv() const;
  /// Renders the rows as a JSON array, one object per row keyed by the
  /// header. A cell that reads as a JSON number is written as one, any
  /// other cell as a string.
  void print_json(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace geomcast::util
