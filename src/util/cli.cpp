#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/check.hpp"
#include "util/table.hpp"

namespace wormsim::util {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name, std::string* target,
                         const std::string& help) {
  add_flag(
      name,
      [target](const std::string& value) {
        *target = value;
        return true;
      },
      help, *target);
}

void CliParser::add_flag(const std::string& name, std::int64_t* target,
                         const std::string& help) {
  add_flag(
      name,
      [target](const std::string& value) {
        errno = 0;
        char* end = nullptr;
        const long long parsed = std::strtoll(value.c_str(), &end, 10);
        if (value.empty() || *end != '\0' || errno == ERANGE) return false;
        *target = parsed;
        return true;
      },
      help, std::to_string(*target));
}

void CliParser::add_flag(const std::string& name, double* target,
                         const std::string& help) {
  add_flag(
      name,
      [target](const std::string& value) {
        errno = 0;
        char* end = nullptr;
        const double parsed = std::strtod(value.c_str(), &end);
        if (value.empty() || *end != '\0' || errno == ERANGE) return false;
        *target = parsed;
        return true;
      },
      help, format_double(*target, 4));
}

void CliParser::add_flag(const std::string& name, bool* target,
                         const std::string& help) {
  add_flag(
      name, [target](const std::string& value) {
        return parse_bool(value, target);
      },
      help, *target ? "true" : "false", /*is_switch=*/true);
}

void CliParser::add_flag(const std::string& name, Parser parse,
                         const std::string& help, std::string default_repr,
                         bool is_switch) {
  if (find(name) != nullptr) {
    std::fprintf(stderr, "flag --%s registered twice\n", name.c_str());
    std::abort();
  }
  flags_.push_back(
      {name, std::move(parse), help, std::move(default_repr), is_switch});
}

const CliParser::Flag* CliParser::find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

CliParser::Status CliParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return Status::kHelp;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s",
                   arg.c_str(), usage().c_str());
      return Status::kError;
    }
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    const Flag* flag = find(arg);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag: --%s\n%s", arg.c_str(),
                   usage().c_str());
      return Status::kError;
    }
    if (!has_value) {
      if (flag->is_switch) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s needs a value\n", arg.c_str());
        return Status::kError;
      }
    }
    if (!flag->parse(value)) {
      std::fprintf(stderr, "bad value for --%s: '%s'\n", arg.c_str(),
                   value.c_str());
      return Status::kError;
    }
  }
  return Status::kOk;
}

bool parse_shard(const std::string& text, unsigned* index, unsigned* count) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= text.size()) {
    return false;
  }
  std::uint32_t i = 0;
  std::uint32_t n = 0;
  if (!parse_u32(text.substr(0, slash), &i) ||
      !parse_u32(text.substr(slash + 1), &n)) {
    return false;
  }
  if (n == 0 || i >= n) return false;
  *index = i;
  *count = n;
  return true;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  for (const char c : text) {
    // strtoull on its own accepts leading whitespace, a sign, and stops
    // at the first junk character; the digits-only pre-pass rejects all
    // of those so only overflow remains to be caught below.
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  static_assert(sizeof(unsigned long long) >= sizeof(std::uint64_t));
  *out = parsed;
  return true;
}

bool parse_u32(const std::string& text, std::uint32_t* out) {
  std::uint64_t wide = 0;
  if (!parse_u64(text, &wide) ||
      wide > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  *out = static_cast<std::uint32_t>(wide);
  return true;
}

bool parse_nonneg_double(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !(value >= 0.0)) return false;
  *out = value;
  return true;
}

bool parse_bool(const std::string& text, bool* out) {
  if (text == "true" || text == "1") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0") {
    *out = false;
    return true;
  }
  return false;
}

namespace {

[[noreturn]] void die_bad_env(const char* name, const char* expected,
                              const char* raw) {
  std::fprintf(stderr, "%s: expected %s, got '%s'\n", name, expected, raw);
  std::abort();
}

}  // namespace

std::uint64_t env_u64_or(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  std::uint64_t value = 0;
  if (!parse_u64(raw, &value)) {
    die_bad_env(name, "a non-negative decimal integer", raw);
  }
  return value;
}

bool env_bool_or(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  bool value = false;
  if (!parse_bool(raw, &value)) die_bad_env(name, "0, 1, true or false", raw);
  return value;
}

std::string env_string_or(const char* name, std::string fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nflags:\n";
  for (const Flag& flag : flags_) {
    os << "  --" << flag.name << "  " << flag.help << " (default "
       << flag.default_repr << ")\n";
  }
  return os.str();
}

}  // namespace wormsim::util
