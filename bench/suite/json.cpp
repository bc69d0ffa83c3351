// Minimal JSON: shortest round-trip number formatting for the result
// lines, and a small recursive-descent reader for --compare.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace tc::suite {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> document() {
    TC_ASSIGN_OR_RETURN(Json value, parse_value(0));
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status error(const std::string& what) const {
    return invalid_argument("JSON: " + what + " at offset " +
                            std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  StatusOr<Json> parse_value(int depth) {
    if (depth > kMaxDepth) return error("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end");
    Json value;
    const char c = text_[pos_];
    if (c == '{') {
      value.type = Json::Type::kObject;
      ++pos_;
      skip_ws();
      if (consume("}")) return value;
      while (true) {
        skip_ws();
        TC_ASSIGN_OR_RETURN(std::string key, parse_string());
        skip_ws();
        if (!consume(":")) return error("expected ':'");
        TC_ASSIGN_OR_RETURN(Json member, parse_value(depth + 1));
        value.object.emplace_back(std::move(key), std::move(member));
        skip_ws();
        if (consume("}")) return value;
        if (!consume(",")) return error("expected ',' or '}'");
      }
    }
    if (c == '[') {
      value.type = Json::Type::kArray;
      ++pos_;
      skip_ws();
      if (consume("]")) return value;
      while (true) {
        TC_ASSIGN_OR_RETURN(Json item, parse_value(depth + 1));
        value.array.push_back(std::move(item));
        skip_ws();
        if (consume("]")) return value;
        if (!consume(",")) return error("expected ',' or ']'");
      }
    }
    if (c == '"') {
      value.type = Json::Type::kString;
      TC_ASSIGN_OR_RETURN(value.string, parse_string());
      return value;
    }
    if (consume("true")) {
      value.type = Json::Type::kBool;
      value.boolean = true;
      return value;
    }
    if (consume("false")) {
      value.type = Json::Type::kBool;
      return value;
    }
    if (consume("null")) return value;
    const char* begin = text_.data() + pos_;
    auto [end, ec] =
        std::from_chars(begin, text_.data() + text_.size(), value.number);
    if (ec != std::errc() || end == begin) return error("bad value");
    value.type = Json::Type::kNumber;
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  StatusOr<std::string> parse_string() {
    if (!consume("\"")) return error("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // Only ASCII escapes occur in the files this reads.
          unsigned code = 0;
          const char* first = text_.data() + pos_;
          const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
          auto [end, ec] = std::from_chars(first, last, code, 16);
          if (ec != std::errc() || end != first + 4) {
            return error("bad \\u escape");
          }
          out += static_cast<char>(code & 0x7f);
          pos_ += 4;
          break;
        }
        default: out += esc;
      }
    }
    return error("unterminated string");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<Json> read_json_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return not_found("cannot open " + path);
  std::ostringstream text;
  text << file.rdbuf();
  const std::string contents = text.str();
  auto parsed = Parser(contents).document();
  if (!parsed.is_ok()) {
    return invalid_argument(path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace tc::suite
