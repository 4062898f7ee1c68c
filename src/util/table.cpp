#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace geomcast::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table requires at least one column");
}

Table& Table::begin_row() {
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

Table& Table::add_cell(std::string value) {
  if (rows_.empty()) throw std::logic_error("add_cell before begin_row");
  if (rows_.back().size() >= header_.size())
    throw std::logic_error("row has more cells than header columns");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add_number(double value, int max_decimals) {
  return add_cell(format_number(value, max_decimals));
}

Table& Table::add_integer(long long value) { return add_cell(std::to_string(value)); }

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string{};
      out << (c == 0 ? "| " : " ");
      out << text << std::string(widths[c] - text.size(), ' ') << " |";
    }
    out << '\n';
  };

  print_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c)
    out << (c == 0 ? "|-" : "-") << std::string(widths[c], '-') << "-|";
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string Table::to_string() const {
  std::ostringstream out;
  print(out);
  return out.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string escaped = "\"";
  for (char ch : cell) {
    if (ch == '"') escaped += '"';
    escaped += ch;
  }
  escaped += '"';
  return escaped;
}
}  // namespace

void Table::print_csv(std::ostream& out) const {
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) out << ',';
      out << csv_escape(cells[c]);
    }
    out << '\n';
  };
  print_row(header_);
  for (const auto& row : rows_) print_row(row);
}

std::string Table::to_csv() const {
  std::ostringstream out;
  print_csv(out);
  return out.str();
}

namespace {
std::string json_string(const std::string& text) {
  std::string quoted = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      quoted += '\\';
      quoted += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", static_cast<unsigned>(ch));
      quoted += escaped;
    } else {
      quoted += ch;
    }
  }
  return quoted + '"';
}

/// Whether `cell` is a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
bool is_json_number(const std::string& cell) {
  std::size_t i = 0;
  const auto at = [&](const char* chars) {
    return i < cell.size() && cell[i] != '\0' && std::strchr(chars, cell[i]) != nullptr;
  };
  const auto digits = [&] {
    const std::size_t from = i;
    while (at("0123456789")) ++i;
    return i > from;
  };
  if (at("-")) ++i;
  if (at("0")) {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (at(".") && (++i, !digits())) return false;
  if (at("eE")) {
    ++i;
    if (at("+-")) ++i;
    if (!digits()) return false;
  }
  return i == cell.size();
}

std::string json_value(const std::string& cell) {
  return is_json_number(cell) ? cell : json_string(cell);
}
}  // namespace

void Table::print_json(std::ostream& out) const {
  out << '[';
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << (r > 0 ? ",\n  {" : "\n  {");
    for (std::size_t c = 0; c < rows_[r].size(); ++c)
      out << (c > 0 ? ", " : "") << json_string(header_[c]) << ": " << json_value(rows_[r][c]);
    out << '}';
  }
  out << "\n]\n";
}

}  // namespace geomcast::util
