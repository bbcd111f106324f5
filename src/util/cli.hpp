// Minimal command-line flag parsing for the example binaries and
// perfbench's runner.
//
// Supports --name=value and --name value forms plus boolean switches.
// Unrecognized flags abort with a usage message listing registered flags.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace wormsim::util {

class CliParser {
 public:
  /// Outcome of parse().  kHelp is not an error: --help/-h printed the
  /// usage text to stdout and the program should exit with status 0.
  enum class Status { kOk, kHelp, kError };

  CliParser(std::string program_description);

  /// Parses one flag value and stores it; returns false to reject it.
  using Parser = std::function<bool(const std::string& value)>;

  /// Registers a flag; returned pointers stay owned by the caller and are
  /// filled in by parse().  Registering a name twice aborts: parse()
  /// could only ever reach the first registration.
  void add_flag(const std::string& name, std::string* target,
                const std::string& help);
  void add_flag(const std::string& name, std::int64_t* target,
                const std::string& help);
  void add_flag(const std::string& name, double* target,
                const std::string& help);
  void add_flag(const std::string& name, bool* target,
                const std::string& help);
  /// Registers a flag that parses its own value.  usage() shows
  /// `default_repr` as the default.  A switch may also be given bare
  /// (--name), which parses "true".
  void add_flag(const std::string& name, Parser parse,
                const std::string& help, std::string default_repr,
                bool is_switch = false);

  /// Parses argv.  Returns kHelp after printing usage to stdout for
  /// --help/-h, kError after printing a diagnostic (plus usage) to stderr
  /// for a bad flag or value, kOk otherwise.
  Status parse(int argc, char** argv);

  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    Parser parse;
    std::string help;
    std::string default_repr;
    bool is_switch;
  };

  const Flag* find(const std::string& name) const;

  std::string description_;
  std::vector<Flag> flags_;
};

/// Parses "i/n" shard notation (as in --shard=2/4): 0-based index i and
/// total count n with 0 <= i < n.  Returns false (leaving the outputs
/// untouched) on malformed input — missing slash, trailing garbage,
/// values that overflow 32 bits, n == 0, or i >= n.
bool parse_shard(const std::string& text, unsigned* index, unsigned* count);

/// Parses a non-negative decimal integer.  Rejects empty input, any
/// non-digit character (including sign, whitespace, and trailing
/// garbage), and values that overflow the output type.  Returns false
/// leaving `*out` untouched on failure.
bool parse_u64(const std::string& text, std::uint64_t* out);
bool parse_u32(const std::string& text, std::uint32_t* out);

/// Parses a non-negative number (strtod syntax, full-string match; NaN
/// rejected), leaving `*out` untouched on failure.
bool parse_nonneg_double(const std::string& text, double* out);

/// Parses "true"/"1" or "false"/"0", leaving `*out` untouched otherwise.
bool parse_bool(const std::string& text, bool* out);

/// Reads an unsigned decimal environment knob.  Returns `fallback` when
/// the variable is unset or empty; aborts with a diagnostic naming the
/// variable when it is set to something parse_u64 rejects — a mistyped
/// knob silently falling back is worse than a hard stop.
std::uint64_t env_u64_or(const char* name, std::uint64_t fallback);
/// The same for a switch read with parse_bool.
bool env_bool_or(const char* name, bool fallback);
/// A string environment knob: `fallback` when unset or empty.
std::string env_string_or(const char* name, std::string fallback);

}  // namespace wormsim::util
