#include "trace/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace sv::trace {

namespace {
const Json kNullJson{};
}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail("unexpected character");
    }
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return Json(string());
      case 't':
        if (!consume("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume("null")) fail("bad literal");
        return Json{};
      default:
        return number();
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.type_ = Json::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj_.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.type_ = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("bad \\u escape");
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode (no surrogate-pair handling; the sink never emits
          // code points outside the BMP).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double out = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{} || ptr != last || first == last) {
      fail("bad number");
    }
    Json j(out);
    const auto [iptr, iec] = std::from_chars(first, last, j.u64_);
    j.exact_ = iec == std::errc{} && iptr == last;
    return j;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Json Json::parse(std::string_view text) { return JsonParser(text).run(); }

const Json& Json::operator[](const std::string& key) const {
  if (type_ == Type::kObject) {
    if (auto it = obj_.find(key); it != obj_.end()) {
      return it->second;
    }
  }
  return kNullJson;
}

double Json::number_or(const std::string& key, double dflt) const {
  const Json& v = (*this)[key];
  return v.type() == Type::kNumber ? v.as_number() : dflt;
}

std::uint64_t Json::u64_or(const std::string& key, std::uint64_t dflt) const {
  const Json& v = (*this)[key];
  if (v.type() == Type::kString) {
    std::uint64_t n = 0;
    const char* end = v.str_.data() + v.str_.size();
    const auto [ptr, ec] = std::from_chars(v.str_.data(), end, n);
    return ec == std::errc() && ptr == end ? n : dflt;
  }
  if (v.type() != Type::kNumber) {
    return dflt;
  }
  return v.exact_ ? v.u64_ : static_cast<std::uint64_t>(v.num_);
}

std::string Json::string_or(const std::string& key, std::string dflt) const {
  const Json& v = (*this)[key];
  return v.type() == Type::kString ? v.as_string() : dflt;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace sv::trace
