#include "sim/config.hpp"

#include <cctype>
#include <stdexcept>

namespace sv::sim {

Config Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("Config: expected key=value, got: " + arg);
    }
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

void Config::set_u64(const std::string& key, std::uint64_t value) {
  values_[key] = std::to_string(value);
}

std::string Config::get_string(const std::string& key,
                               const std::string& def) const {
  auto it = values_.find(key);
  return it != values_.end() ? it->second : def;
}

std::uint64_t Config::get_u64(const std::string& key,
                              std::uint64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  // The whole value must be one unsigned number (decimal, 0x hex or 0
  // octal): stoull alone would accept "12abc" as 12 and wrap "-1".
  const std::string& v = it->second;
  std::size_t used = 0;
  std::uint64_t out = 0;
  if (!v.empty() && std::isdigit(static_cast<unsigned char>(v[0])) != 0) {
    try {
      out = std::stoull(v, &used, 0);
    } catch (const std::out_of_range&) {
      used = 0;
    }
  }
  if (used == 0 || used != v.size()) {
    throw std::invalid_argument(key + ": expected an unsigned integer, got '" +
                                v + "'");
  }
  return out;
}

double Config::get_double(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  // As for get_u64, the whole value must be the number: stod alone would
  // also skip leading blanks and accept a '+' sign, "nan" and "inf".
  const std::string& v = it->second;
  std::size_t used = 0;
  double out = 0.0;
  if (!v.empty() && (std::isdigit(static_cast<unsigned char>(v[0])) != 0 ||
                     v[0] == '-' || v[0] == '.')) {
    try {
      out = std::stod(v, &used);
    } catch (const std::exception&) {
      used = 0;
    }
  }
  if (used == 0 || used != v.size()) {
    throw std::invalid_argument(key + ": expected a number, got '" + v + "'");
  }
  return out;
}

bool Config::get_bool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw std::invalid_argument("Config: bad bool for " + key + ": " + v);
}

}  // namespace sv::sim
