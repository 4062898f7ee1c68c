// Minimal command-line flag parsing for the bench/example binaries.
// Supports --name=value and --name value; bool flags accept bare --name.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace geomcast::util {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input
  /// (non-flag positional arguments are collected, not rejected).
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// Comma-separated integer list, e.g. --dims=2,3,4.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  /// Names of the flags given on the command line that no has()/get_*()
  /// call has asked about yet, sorted — read every flag a program knows,
  /// then reject these as unknown (a typo would otherwise run the
  /// defaults without a word).
  [[nodiscard]] std::vector<std::string> unused() const;
  /// Throws std::invalid_argument naming every flag in unused(). A program
  /// calls it once it has read every flag it knows, before any work.
  void reject_unused() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  /// values_.find that also records `name` as queried.
  [[nodiscard]] std::map<std::string, std::string>::const_iterator find(
      const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> queried_;
  std::vector<std::string> positional_;
};

}  // namespace geomcast::util
