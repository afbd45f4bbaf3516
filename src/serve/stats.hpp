// Serving-layer observability: one consistent snapshot of the scheduler's
// counters (DESIGN.md §B2).
//
// Every counter is maintained under the scheduler's queue mutex, so a
// snapshot is a point-in-time view with exact conservation laws that
// tests pin directly:
//
//   submitted == admitted + shed
//   admitted  == completed + failed + cancelled + expired + in_flight()
//
// Latency is measured with the scheduler's injected clock from request
// admission to request completion, so under the deterministic test rig
// (scripted clock + manual drain) latency numbers are exact, not
// statistical.
//
// The scheduler owns no plan cache, so the snapshot carries no cache
// counters; the serving cache reports its own through
// ModelRegistry::plan_cache().stats().
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace rnx::serve {

struct ServeStats {
  // -- request accounting (units: requests) ----------------------------
  std::uint64_t submitted = 0;  ///< accepted submit() calls (empty included)
  std::uint64_t admitted = 0;   ///< entered the queue (or completed empty)
  std::uint64_t shed = 0;       ///< refused at admission (any reason)
  std::uint64_t invalid = 0;    ///< of those shed: kInvalidRequest
  std::uint64_t completed = 0;  ///< future resolved with predictions
  std::uint64_t failed = 0;     ///< future resolved with a forward error
  std::uint64_t cancelled = 0;  ///< ShutdownError at shutdown, or a
                                ///< caller's request_cancel() honored
  std::uint64_t expired = 0;    ///< deadline passed before execution
                                ///< (DeadlineExceededError, no forward)

  // -- batching --------------------------------------------------------
  std::uint64_t batches = 0;        ///< executed micro-batches
  std::uint64_t batch_samples = 0;  ///< samples across all batches
  std::uint64_t peak_batch_samples = 0;

  // -- queue occupancy (units: requests) -------------------------------
  std::size_t queue_depth = 0;  ///< pending right now
  std::size_t peak_queue_depth = 0;

  // -- latency (admission -> completion, scheduler clock) --------------
  std::uint64_t latency_us_sum = 0;
  std::uint64_t latency_us_max = 0;

  // -- kernel backend (nn::kernels dispatch; static strings) ------------
  const char* kernel_isa = "";     ///< active ISA tag, e.g. "avx2+fma"
  const char* kernel_reason = "";  ///< why it was chosen (dispatch_reason)

  /// Requests admitted but not yet resolved.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return admitted - completed - failed - cancelled - expired;
  }
  /// Mean admission-to-completion latency over resolved requests.
  [[nodiscard]] double mean_latency_us() const noexcept {
    const std::uint64_t n = completed + failed;
    return n == 0 ? 0.0 : static_cast<double>(latency_us_sum) /
                              static_cast<double>(n);
  }
  /// Mean executed-batch size in samples.
  [[nodiscard]] double mean_batch_samples() const noexcept {
    return batches == 0 ? 0.0 : static_cast<double>(batch_samples) /
                                    static_cast<double>(batches);
  }
};

/// Operator-facing table (tools/rnx_serve).
void print_stats(std::ostream& os, const ServeStats& s);

}  // namespace rnx::serve
