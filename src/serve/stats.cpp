#include "serve/stats.hpp"

#include <ostream>

namespace rnx::serve {

void print_stats(std::ostream& os, const ServeStats& s) {
  os << "serve stats:\n"
     << "  requests   submitted " << s.submitted << ", admitted "
     << s.admitted << ", shed " << s.shed << " (invalid " << s.invalid
     << "), completed " << s.completed
     << ", failed " << s.failed << ", cancelled " << s.cancelled
     << ", expired " << s.expired << ", in-flight " << s.in_flight() << "\n"
     << "  batches    " << s.batches << " (" << s.batch_samples
     << " samples, mean " << s.mean_batch_samples() << ", peak "
     << s.peak_batch_samples << ")\n"
     << "  queue      depth " << s.queue_depth << ", peak "
     << s.peak_queue_depth << "\n"
     << "  latency    mean " << s.mean_latency_us() << " us, max "
     << s.latency_us_max << " us\n";
  if (s.kernel_isa != nullptr && s.kernel_isa[0] != '\0')
    os << "  kernels    " << s.kernel_isa << " (" << s.kernel_reason << ")\n";
}

}  // namespace rnx::serve
