#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::note(const std::string& key, const std::string& value) {
  notes_[key] = json_string(value);
}

void Report::note(const std::string& key, double value) {
  notes_[key] = json_number(value);
}

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end())
    throw std::out_of_range("Report: no metric " + name);
  return it->second.value;
}

std::string Report::to_json(bool correct, const OpsAccount& ops) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted());
  out += ", \"failed\": " + std::to_string(ops.failed());
  out += ", \"ops_failed_frac\": " + json_number(ops.failed_frac());
  out += ", \"failure_reasons\": {";
  bool first = true;
  for (const auto& [why, n] : ops.reasons()) {
    out += (first ? "" : ", ") + json_string(why) + ": " + std::to_string(n);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + json_string(name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [key, v] : notes_) {
    out += (first ? "" : ", ") + json_string(key) + ": " + v;
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
