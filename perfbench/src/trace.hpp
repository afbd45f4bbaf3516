// Measurement primitives of the benchmark: the percentile rule, the
// in-memory span recorder with self-time accounting, and the count of
// operations attempted and failed.  No dependency on the rnx library, so
// the unit tests link this alone.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary epoch.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile: the ceil(q/100 * N)-th smallest sample
/// (1-based, clamped to [1, N]), always an observed value.  Throws
/// std::invalid_argument on an empty sample or q outside [0, 100].
[[nodiscard]] double nearest_rank(std::vector<double> xs, double q);

/// Samples strictly beyond the nearest-rank position of q in a sample of
/// n: n - ceil(q/100 * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The highest percentile of the ladder {99.9, 99.5, 99, 98, 95, 90, 75,
/// 50} that keeps at least `min_beyond` samples beyond it in a sample of
/// n, or 0 when even the median does not.
[[nodiscard]] double highest_supported_percentile(std::size_t n,
                                                  std::size_t min_beyond = 10);

/// Median of a non-empty sample (nearest-rank p50).
[[nodiscard]] double median(std::vector<double> xs);

/// One timed interval.  `parent` indexes the span that caused it (-1 for
/// a root); spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Span recorder.  Spans live in memory until write_json; a Tracer is
/// not thread-safe — multi-threaded phases record raw timestamps into
/// per-request slots and add() the spans after joining.
class Tracer {
 public:
  /// Append a finished span; returns its index.
  std::size_t add(std::string name, std::int64_t start_ns,
                  std::int64_t end_ns, std::int64_t parent = -1,
                  std::uint64_t request = 0);

  /// Open a span now as a child of the innermost open span.
  std::size_t open(std::string name, std::uint64_t request = 0);
  /// Close the innermost open span (which must be `index`).
  void close(std::size_t index);

  /// RAII open/close.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t request = 0)
        : t_(t), index_(t.open(std::move(name), request)) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Self time of every span: its duration minus the part of its
  /// interval that its children's intervals cover (overlapping children
  /// count once; a child sticking out of its parent counts only inside).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Summed self time per span name.
  [[nodiscard]] std::map<std::string, std::int64_t> self_ns_by_name() const;
  /// Summed duration per span name.
  [[nodiscard]] std::map<std::string, std::int64_t> total_ns_by_name() const;

  /// Write every span as one JSON document.  Returns false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Operations attempted and failed over a run: shed, failed, expired or
/// wrong responses, non-finite losses, samples that fail a round trip.
class OpsAccount {
 public:
  void attempt(std::uint64_t n = 1) noexcept { attempted_ += n; }
  void fail(std::string_view why, std::uint64_t n = 1);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// failed / attempted (0 when nothing was attempted).
  [[nodiscard]] double failed_frac() const noexcept;
  /// Failure counts by reason.
  [[nodiscard]] const std::map<std::string, std::uint64_t>& reasons() const {
    return reasons_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> reasons_;
};

}  // namespace perfbench
