#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {
std::size_t rank_of(std::size_t n, double q) {
  // q/100 * n carries rounding error (99.9/100 * 1000 = 999.0000000000001);
  // without the slack ceil() would skip a whole rank.
  const double exact = q / 100.0 * static_cast<double>(n);
  const auto r = static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
  return std::clamp<std::size_t>(r, 1, n);
}
}  // namespace

double nearest_rank(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("nearest_rank: empty sample");
  if (!(q >= 0.0 && q <= 100.0))
    throw std::invalid_argument("nearest_rank: q outside [0, 100]");
  const std::size_t k = rank_of(xs.size(), q) - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double q : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0})
    if (samples_beyond(n, q) >= min_beyond) return q;
  return 0.0;
}

double median(std::vector<double> xs) { return nearest_rank(std::move(xs), 50); }

std::size_t Tracer::add(std::string name, std::int64_t start_ns,
                        std::int64_t end_ns, std::int64_t parent,
                        std::uint64_t request) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  return spans_.size() - 1;
}

std::size_t Tracer::open(std::string name, std::uint64_t request) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  const std::size_t i = add(std::move(name), now_ns(), 0, parent, request);
  open_.push_back(i);
  return i;
}

void Tracer::close(std::size_t index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("Tracer::close: spans must close innermost first");
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

  std::vector<std::int64_t> out(spans_.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans_[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans_[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::map<std::string, std::int64_t> Tracer::self_ns_by_name() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

std::map<std::string, std::int64_t> Tracer::total_ns_by_name() const {
  std::map<std::string, std::int64_t> out;
  for (const Span& s : spans_) out[s.name] += s.end_ns - s.start_ns;
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void OpsAccount::fail(std::string_view why, std::uint64_t n) {
  failed_ += n;
  reasons_[std::string(why)] += n;
}

double OpsAccount::failed_frac() const noexcept {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

}  // namespace perfbench
