// Minimal JSON document model: writer + recursive-descent parser.
//
// Just enough JSON for the telemetry subsystem — versioned result files,
// the run manifest, Chrome-trace export, and the round-trip reader the
// tests and telemetry_report use — plus the one function that writes a
// JSON file (figure results, cache entries and heartbeat status all go
// through write_json_file).  Objects preserve insertion order so
// emitted files diff cleanly.  Not a general-purpose library: no \uXXXX
// escape *emission* (parse accepts and folds BMP escapes to UTF-8), and
// numbers are doubles (53-bit integer precision, plenty for counters).
// Finite numbers are emitted with just enough digits to parse back to the
// exact same double, so dump/parse round-trips are bitwise (the experiment
// result cache depends on this).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace wormsim::telemetry {

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  JsonValue(std::int64_t n) : JsonValue(static_cast<double>(n)) {}
  JsonValue(std::uint64_t n) : JsonValue(static_cast<double>(n)) {}
  JsonValue(int n) : JsonValue(static_cast<double>(n)) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  std::uint64_t as_uint() const { return static_cast<std::uint64_t>(number_); }
  const std::string& as_string() const { return string_; }

  /// Array element access.
  std::vector<JsonValue>& items() { return items_; }
  const std::vector<JsonValue>& items() const { return items_; }
  void push_back(JsonValue v) { items_.push_back(std::move(v)); }

  /// Object member access; set() appends or replaces, find() returns null
  /// when the key is absent.
  std::vector<Member>& members() { return members_; }
  const std::vector<Member>& members() const { return members_; }
  void set(const std::string& key, JsonValue v);
  const JsonValue* find(const std::string& key) const;
  /// find() that aborts when the key is missing (for required fields).
  const JsonValue& at(const std::string& key) const;

  /// Serializes; indent >= 0 pretty-prints with that many spaces per
  /// level, indent < 0 emits compact single-line JSON.
  void dump(std::ostream& os, int indent = 2) const;
  std::string dump_string(int indent = 2) const;

  /// Parses a complete JSON document.  On failure returns a null value
  /// and, when `error` is non-null, stores a human-readable message.
  static JsonValue parse(const std::string& text, std::string* error = nullptr);

 private:
  void dump_at(std::ostream& os, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Writes `text` with JSON string escaping (quotes included).
void write_json_string(std::ostream& os, const std::string& text);

/// Writes `document` (dump(2) plus a newline) to `path` in an existing
/// directory: into `<path>.<pid>.<thread>.tmp`, closed and checked, then
/// renamed over `path`, so a concurrent reader sees the old document or
/// the new one, never a torn one, and concurrent writers never share a
/// temp file.  The temp name ends in neither ".json" nor ".status.json",
/// so a scan for finished documents skips it.  On any failure the temp
/// file is removed and the process aborts naming `path`.
void write_json_file(const std::string& path, const JsonValue& document);

/// Reads and parses one JSON file; aborts on I/O or parse errors (these
/// files are machine-produced, so a malformed one is a bug).
JsonValue read_json_file(const std::string& path);

}  // namespace wormsim::telemetry
