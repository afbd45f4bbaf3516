// Minimal --flag=value / --flag value command-line parsing shared by the
// CLI tools.  Unknown flags abort with the tool's usage text so typos
// never silently fall back to defaults, and numeric values are parsed
// strictly (full consumption, range checks): "--epochs ten" or
// "--epochs -3" is a fatal usage error (exit 2), not 0 epochs or a
// wrapped-around huge count as std::atof/std::atoll would give.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace rnx::cli {

/// Parse the whole string as a finite double.  Rejects empty input,
/// trailing garbage ("1.5x"), bare words ("ten"), inf/nan, and values
/// outside double range.
[[nodiscard]] inline std::optional<double> parse_double(
    const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v))
    return std::nullopt;
  return v;
}

/// Parse the whole string as a non-negative integer count.  Rejects
/// everything parse_double rejects plus signs ("-3" must not wrap to a
/// huge std::size_t; "+3" is noise), fractions, and overflow.
[[nodiscard]] inline std::optional<std::size_t> parse_size(
    const std::string& s) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE || v < 0)
    return std::nullopt;
  return static_cast<std::size_t>(v);
}

class Args {
 public:
  Args(int argc, char** argv, std::set<std::string> known,
       std::string usage)
      : usage_(std::move(usage)) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) fail("unexpected positional: " + arg);
      arg = arg.substr(2);
      std::string value = "1";  // bare flags act as booleans
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      if (arg == "help") fail("");
      if (!known.contains(arg)) fail("unknown flag: --" + arg);
      values_[arg].push_back(value);
    }
  }

  /// Every value a repeated flag was given, in command-line order (e.g.
  /// rnx_serve --bundle delay=a.rnxb --bundle jitter=b.rnxb).  The
  /// single-value get() accessors keep their last-one-wins behavior.
  [[nodiscard]] std::vector<std::string> all(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>() : it->second;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const std::string* v = last(key);
    return v == nullptr ? fallback : *v;
  }
  [[nodiscard]] double get(const std::string& key, double fallback) const {
    const std::string* s = last(key);
    if (s == nullptr) return fallback;
    const auto v = parse_double(*s);
    if (!v)
      fail("invalid value for --" + key + ": '" + *s +
           "' (expected a number)");
    return *v;
  }
  [[nodiscard]] std::size_t get(const std::string& key,
                                std::size_t fallback) const {
    const std::string* s = last(key);
    if (s == nullptr) return fallback;
    const auto v = parse_size(*s);
    if (!v)
      fail("invalid value for --" + key + ": '" + *s +
           "' (expected a non-negative integer)");
    return *v;
  }
  /// As the std::size_t get(), but additionally rejects zero — for
  /// flags where 0 is as nonsensical as a negative value (a batch bound,
  /// a queue depth, a client count).  Negative input already dies in parse_size; both
  /// exit 2.
  [[nodiscard]] std::size_t get_positive(const std::string& key,
                                         std::size_t fallback) const {
    const std::size_t v = get(key, fallback);
    if (v == 0)
      fail("invalid value for --" + key +
           ": expected a positive integer, got 0");
    return v;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

 private:
  /// Last occurrence of a flag (single-value accessors keep their
  /// last-one-wins behavior), nullptr when absent.
  [[nodiscard]] const std::string* last(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second.back();
  }

  [[noreturn]] void fail(const std::string& msg) const {
    if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
    std::cerr << usage_ << "\n";
    std::exit(msg.empty() ? 0 : 2);
  }
  std::map<std::string, std::vector<std::string>> values_;
  std::string usage_;
};

}  // namespace rnx::cli
