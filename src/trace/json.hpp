// A minimal JSON value + recursive-descent parser, just enough to read
// back the Chrome trace files the sink writes (and the StatRegistry JSON
// dump). No external dependencies; throws std::runtime_error on malformed
// input. A non-negative integer literal also keeps its exact 64-bit value,
// and u64_or() reads a quoted one exactly, so ids above 2^53 (trace flow
// ids) survive the round trip in either form.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sv::trace {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;
  explicit Json(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Json(double n) : type_(Type::kNumber), num_(n) {}
  explicit Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static Json parse(std::string_view text);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const Array& as_array() const { return arr_; }

  /// Object member lookup; returns a shared null value when absent.
  [[nodiscard]] const Json& operator[](const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const {
    return type_ == Type::kObject && obj_.count(key) != 0;
  }

  /// Convenience accessors with defaults for optional members.
  [[nodiscard]] double number_or(const std::string& key, double dflt) const;
  /// A number member as an integer: exact for a non-negative integer
  /// literal that fits 64 bits, else converted from its double. A string
  /// of decimal digits (how the trace writers quote flow ids) reads
  /// exactly too; any other string gives `dflt`.
  [[nodiscard]] std::uint64_t u64_or(const std::string& key,
                                     std::uint64_t dflt) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string dflt) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t u64_ = 0;
  bool exact_ = false;  // u64_ holds the literal's value
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Escape a string for embedding in a JSON document (no surrounding quotes).
std::string json_escape(std::string_view s);

}  // namespace sv::trace
