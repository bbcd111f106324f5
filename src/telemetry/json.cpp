#include "telemetry/json.hpp"

#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <thread>

#include "util/check.hpp"

namespace wormsim::telemetry {

void JsonValue::set(const std::string& key, JsonValue v) {
  type_ = Type::kObject;
  for (Member& member : members_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  static const JsonValue kNull;
  const JsonValue* found = find(key);
  return found != nullptr ? *found : kNull;
}

void write_json_string(std::ostream& os, const std::string& text) {
  os << '"';
  for (char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

void write_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";  // JSON has no NaN/Inf; results should never hit this
    return;
  }
  if (value == std::floor(value) && std::abs(value) < 9.0e15) {
    os << static_cast<long long>(value);
    return;
  }
  // Shortest representation that parses back to the exact same double:
  // the result cache replays SweepPoints from disk and must stay bitwise
  // identical to a fresh computation, so emission may not round.
  char buffer[40];
  for (int precision = 12; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  os << buffer;
}

void write_break(std::ostream& os, int indent, int depth) {
  if (indent < 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void JsonValue::dump_at(std::ostream& os, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: os << "null"; break;
    case Type::kBool: os << (bool_ ? "true" : "false"); break;
    case Type::kNumber: write_number(os, number_); break;
    case Type::kString: write_json_string(os, string_); break;
    case Type::kArray: {
      if (items_.empty()) {
        os << "[]";
        break;
      }
      os << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) os << ',';
        write_break(os, indent, depth + 1);
        items_[i].dump_at(os, indent, depth + 1);
      }
      write_break(os, indent, depth);
      os << ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        os << "{}";
        break;
      }
      os << '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) os << ',';
        write_break(os, indent, depth + 1);
        write_json_string(os, members_[i].first);
        os << (indent < 0 ? ":" : ": ");
        members_[i].second.dump_at(os, indent, depth + 1);
      }
      write_break(os, indent, depth);
      os << '}';
      break;
    }
  }
}

void JsonValue::dump(std::ostream& os, int indent) const {
  dump_at(os, indent, 0);
}

std::string JsonValue::dump_string(int indent) const {
  std::ostringstream os;
  dump(os, indent);
  return os.str();
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_space();
    if (ok_ && pos_ != text_.size()) fail("trailing characters");
    return ok_ ? value : JsonValue();
  }

  bool ok() const { return ok_; }

 private:
  void fail(const std::string& message) {
    if (ok_ && error_ != nullptr) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    ok_ = false;
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    std::size_t len = 0;
    while (word[len] != '\0') ++len;
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_space();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return JsonValue();
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (literal("true")) return JsonValue(true);
      fail("bad literal");
      return JsonValue();
    }
    if (c == 'f') {
      if (literal("false")) return JsonValue(false);
      fail("bad literal");
      return JsonValue();
    }
    if (c == 'n') {
      if (literal("null")) return JsonValue();
      fail("bad literal");
      return JsonValue();
    }
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue object = JsonValue::object();
    consume('{');
    skip_space();
    if (consume('}')) return object;
    while (ok_) {
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        break;
      }
      std::string key = parse_string();
      skip_space();
      if (!consume(':')) {
        fail("expected ':'");
        break;
      }
      object.members().emplace_back(std::move(key), parse_value());
      skip_space();
      if (consume(',')) continue;
      if (consume('}')) break;
      fail("expected ',' or '}'");
    }
    return object;
  }

  JsonValue parse_array() {
    JsonValue array = JsonValue::array();
    consume('[');
    skip_space();
    if (consume(']')) return array;
    while (ok_) {
      array.push_back(parse_value());
      skip_space();
      if (consume(',')) continue;
      if (consume(']')) break;
      fail("expected ',' or ']'");
    }
    return array;
  }

  std::string parse_string() {
    std::string out;
    consume('"');
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
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
            fail("truncated \\u escape");
            return out;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else { fail("bad \\u escape"); return out; }
          }
          // Fold the BMP code point to UTF-8 (no surrogate pairing).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          fail("bad escape");
          return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected value");
      return JsonValue();
    }
    // The greedy scan above happily swallows tokens like "1-2" or
    // "1.2.3"; stod would stop at the first malformed character and
    // silently return the prefix.  Require the whole token to convert.
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t consumed = 0;
      const double value = std::stod(token, &consumed);
      if (consumed != token.size()) {
        fail("bad number");
        return JsonValue();
      }
      return JsonValue(value);
    } catch (...) {
      fail("bad number");
      return JsonValue();
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text, std::string* error) {
  Parser parser(text, error);
  return parser.run();
}

void write_json_file(const std::string& path, const JsonValue& document) {
  std::ostringstream tmp_name;
  tmp_name << path << '.' << static_cast<unsigned long>(::getpid()) << '.'
           << std::hash<std::thread::id>{}(std::this_thread::get_id())
           << ".tmp";
  const std::string tmp = tmp_name.str();
  std::ofstream out(tmp, std::ios::trunc);
  if (out.good()) {
    document.dump(out, 2);
    out << '\n';
    out.close();
  }
  std::error_code ec;
  if (!out.fail()) std::filesystem::rename(tmp, path, ec);
  if (out.fail() || ec) {
    std::filesystem::remove(tmp, ec);
    std::fprintf(stderr, "wormsim: cannot write JSON file %s\n",
                 path.c_str());
    std::abort();
  }
}

JsonValue read_json_file(const std::string& path) {
  std::ifstream in(path);
  WORMSIM_CHECK_MSG(in.good(), "cannot open JSON file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  JsonValue document = JsonValue::parse(buffer.str(), &error);
  WORMSIM_CHECK_MSG(error.empty(), "JSON file failed to parse");
  return document;
}

}  // namespace wormsim::telemetry
