// The benchmark's three workloads and what they share.
//
// Every workload has an untraced run (end-to-end metrics, --trace 0) and
// a traced section (per-layer metrics, --trace 1).  A traced run executes
// the traced sections of all three workloads, so every per-layer metric
// is present whichever workload is named.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch space for stores, checkpoints, spans
  /// serve_geant2's fixed open-loop arrival rate, req/s (recorded in
  /// perfbench/workloads.json).
  double open_loop_rps = 0.0;
};

/// A run too short to measure what it must (a latency sample without ten
/// observations beyond its tail percentile): a usage error, not a wrong
/// output.
struct TooShort : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct RunResult {
  Report report;
  OpsAccount ops;
  Tracer tracer;
  /// Correctness violations; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Largest thread count check_threads() observed.
  std::size_t threads_peak = 0;

  void error(std::string what) { errors.push_back(std::move(what)); }
};

// -- untraced runs: end-to-end metrics ------------------------------------
void run_serve(const RunArgs& args, RunResult& out);
void run_train(const RunArgs& args, RunResult& out);
void run_datagen(const RunArgs& args, RunResult& out);

// -- traced sections: per-layer metrics, each given `seconds` -------------
void trace_serve(const RunArgs& args, double seconds, RunResult& out);
void trace_train(const RunArgs& args, double seconds, RunResult& out);
void trace_datagen(const RunArgs& args, double seconds, RunResult& out);

// -- shared helpers --------------------------------------------------------

/// Times a workload's set-up over a run.  The first set-up comes before
/// anything is timed; the workload repeats it between its timed units
/// whenever due() says so, `reps` times over a run of `seconds`.
/// setup_s is the median, so like every other metric it samples the host
/// across the whole run rather than the first second of it.
class SetupTimer {
 public:
  SetupTimer(double seconds, std::size_t reps)
      : reps_(reps),
        start_(now_ns()),
        period_ns_(static_cast<std::int64_t>(seconds * 1e9 /
                                             static_cast<double>(reps))) {}

  /// True when the next set-up is due: the first at once.
  [[nodiscard]] bool due() const {
    return secs_.size() < reps_ &&
           now_ns() >= start_ + period_ns_ * static_cast<std::int64_t>(secs_.size());
  }

  /// Run and time one set-up; returns its result.
  template <class Setup>
  auto time(const Setup& setup) {
    const std::int64_t t0 = now_ns();
    auto value = setup();
    secs_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return value;
  }

  void report(RunResult& out) const {
    out.report.metric("setup_s", median(secs_), "s");
    out.report.note("setup_reps", static_cast<double>(secs_.size()));
  }

 private:
  std::size_t reps_;
  std::int64_t start_;
  std::int64_t period_ns_;
  std::vector<double> secs_;
};

/// Report latency_p50_ms and latency_tail_ms (the nearest-rank percentile
/// `tail_q`) of `ms`, with the sample count.  Throws TooShort when the
/// sample holds fewer than ten observations beyond `tail_q`.
void report_latency(const std::vector<double>& ms, double tail_q,
                    RunResult& out);

/// A seed for one input stream of the run, derived from --seed and a label.
[[nodiscard]] std::uint64_t derived_seed(const RunArgs& args,
                                         const char* label);

/// Peak resident set of this process, MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();
/// Threads of this process right now (/proc/self/status).
[[nodiscard]] std::size_t thread_count();
/// Online processors.
[[nodiscard]] std::size_t nproc();
/// Host fingerprint notes: nproc, cpu model, kernel ISA and dispatch
/// reason, build type, load average (`when` = "start" or "end").
void fingerprint(Report& report, const std::string& when);

/// Records the largest thread count seen; an error when it exceeds nproc.
void check_threads(RunResult& out);

}  // namespace perfbench
