// Simple typed key=value configuration store used to parameterize the
// machine (clock periods, queue sizes, firmware handler costs, ...).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sv::sim {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" strings (e.g. from argv); malformed entries throw.
  static Config from_args(const std::vector<std::string>& args);

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  void set_u64(const std::string& key, std::uint64_t value);

  [[nodiscard]] bool contains(const std::string& key) const {
    return values_.count(key) != 0;
  }

  /// Typed getters return `def` when the key is absent. A present value
  /// that does not parse as a whole throws std::invalid_argument naming
  /// the key.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& def = "") const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] const std::map<std::string, std::string>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace sv::sim
