// Result records produced by one simulation run.
//
// PathStats carries exactly the label set the paper's datasets need:
// mean end-to-end delay (the regression target of Fig. 2), jitter
// (delay variance, the secondary metric RouteNet supports) and loss.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"

namespace rnx::sim {

/// Per source-destination pair statistics over the measurement window.
struct PathStats {
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
  std::uint64_t generated = 0;  ///< packets generated in the window
  std::uint64_t delivered = 0;  ///< ... that reached dst
  std::uint64_t dropped = 0;    ///< ... dropped at a full queue
  double mean_delay_s = 0.0;    ///< mean end-to-end delay of delivered pkts
  double jitter_s2 = 0.0;       ///< delay variance (RouteNet's "jitter")
  double min_delay_s = 0.0;
  double max_delay_s = 0.0;

  [[nodiscard]] double loss_rate() const noexcept {
    return generated ? static_cast<double>(dropped) /
                           static_cast<double>(generated)
                     : 0.0;
  }
};

/// Per directed-link statistics over the measurement window.
struct LinkStats {
  std::uint64_t arrivals = 0;  ///< packets offered to the port queue
  std::uint64_t drops = 0;     ///< packets rejected (queue full)
  double utilization = 0.0;    ///< busy time / window duration
  double mean_queue_pkts = 0.0;  ///< time-averaged system occupancy
};

/// Complete output of Simulator::run().
struct SimResult {
  std::vector<PathStats> paths;  ///< one per routed (src, dst), src-major
  std::vector<LinkStats> links;  ///< indexed by LinkId
  std::uint64_t total_events = 0;  ///< events processed
  /// The run hit SimConfig::max_events before draining: packets still in
  /// flight are missing from every statistic.
  bool truncated = false;
  double sim_time_s = 0.0;  ///< simulated horizon (warmup + window)

  /// Index of the (src, dst) entry in paths, or throws.
  [[nodiscard]] const PathStats& path(topo::NodeId src,
                                      topo::NodeId dst) const;
};

}  // namespace rnx::sim
