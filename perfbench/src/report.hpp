// The result document one benchmark run prints: metrics with units,
// string and numeric notes (host fingerprint, sample counts), and the
// operation accounting.  perfbench/run.py reads it from the last line of
// the binary's standard output.
#pragma once

#include <map>
#include <string>

#include "trace.hpp"

namespace perfbench {

class Report {
 public:
  /// Record a metric; a second call with the same name overwrites.
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);

  [[nodiscard]] double value(const std::string& name) const;

  /// One-line JSON: {"correct", "attempted", "failed", "ops_failed_frac",
  /// "failure_reasons", "metrics": {name: {"value", "unit"}}, "notes"}.
  /// Non-finite numbers are written as null.
  [[nodiscard]] std::string to_json(bool correct, const OpsAccount& ops) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;  ///< pre-encoded JSON values
};

/// JSON string literal for `s` (quotes, backslashes and control bytes
/// escaped).
[[nodiscard]] std::string json_string(const std::string& s);
/// JSON number with all 17 significant digits, or null when non-finite.
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
