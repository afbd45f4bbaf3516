// Shared helpers: seeds, latency reporting, host fingerprint.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "nn/kernels.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t derived_seed(const RunArgs& args, const char* label) {
  rnx::util::RngStream rng = rnx::util::RngStream(args.seed).derive(label);
  return rng();
}

void report_latency(const std::vector<double>& ms, double tail_q,
                    RunResult& out) {
  out.report.note("latency_samples", static_cast<double>(ms.size()));
  out.report.note("latency_tail_q", tail_q);
  if (samples_beyond(ms.size(), tail_q) < 10)
    throw TooShort("latency sample of " + std::to_string(ms.size()) +
                   " holds fewer than 10 observations beyond p" +
                   std::to_string(tail_q) + "; run for longer");
  out.report.note("latency_highest_supported_q",
                  highest_supported_percentile(ms.size()));
  out.report.metric("latency_p50_ms", median(ms), "ms");
  out.report.metric("latency_tail_ms", nearest_rank(ms, tail_q), "ms");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::size_t thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("Threads:", 0) == 0)
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
  return 0;
}

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

void check_threads(RunResult& out) {
  const std::size_t n = thread_count();
  if (n > out.threads_peak) out.threads_peak = n;
  if (n > nproc())
    out.error("ran " + std::to_string(n) + " threads on " +
              std::to_string(nproc()) + " processors");
}

void fingerprint(Report& report, const std::string& when) {
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) report.note("loadavg_1m_" + when, load[0]);
  if (when != "start") return;
  report.note("nproc", static_cast<double>(nproc()));
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      report.note("cpu_model", colon == std::string::npos
                                   ? line
                                   : line.substr(colon + 2));
      break;
    }
  report.note("kernel_isa", rnx::nn::kernels::active().name);
  report.note("kernel_dispatch_reason", rnx::nn::kernels::dispatch_reason());
  report.note("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
