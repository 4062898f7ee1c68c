#include "util/flags.hpp"

#include <stdexcept>

namespace geomcast::util {

namespace {
bool looks_like_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}
}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& name) const { return find(name) != values_.end(); }

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_)
    if (queried_.count(name) == 0) names.push_back(name);
  return names;
}

void Flags::reject_unused() const {
  const std::vector<std::string> names = unused();
  if (names.empty()) return;
  std::string list;
  for (const std::string& name : names) list += (list.empty() ? "--" : ", --") + name;
  throw std::invalid_argument("unknown flag(s): " + list);
}

std::map<std::string, std::string>::const_iterator Flags::find(
    const std::string& name) const {
  queried_.insert(name);
  return values_.find(name);
}

std::string Flags::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                it->second + "'");
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                it->second + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "yes" || text == "on") return true;
  if (text == "false" || text == "0" || text == "no" || text == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + text + "'");
}

std::vector<std::int64_t> Flags::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const auto it = find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::string token;
  for (char ch : it->second + ",") {
    if (ch == ',') {
      if (!token.empty()) {
        out.push_back(std::stoll(token));
        token.clear();
      }
    } else {
      token += ch;
    }
  }
  return out;
}

}  // namespace geomcast::util
