// Feature and label scaling.
//
// The GNN consumes z-scored features (traffic, capacity, queue size) and
// regresses the z-scored *log* of the delay; relative error — what Fig. 2
// plots — is computed after inverting the transform.  Scaler statistics
// are fitted on the training set only and reused verbatim for evaluation
// sets (including the unseen topology), exactly as a deployed model would.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/sample.hpp"

namespace rnx::data {

class SampleSource;

/// Mean/stddev pair for one feature channel.
struct Moments {
  double mean = 0.0;
  double stddev = 1.0;

  [[nodiscard]] double normalize(double x) const noexcept {
    return (x - mean) / stddev;
  }
  [[nodiscard]] double denormalize(double z) const noexcept {
    return z * stddev + mean;
  }
};
// Bundles and checkpoints write a Moments as one POD: f64 mean, f64
// stddev, no padding.
static_assert(sizeof(Moments) == 2 * sizeof(double));

class Scaler {
 public:
  /// Fit all channels on a training set.  Paths with delivered <
  /// min_delivered are excluded from label statistics (their means are
  /// too noisy to trust).  Throws if the set yields no usable labels.
  static Scaler fit(std::span<const Sample> train,
                    std::uint64_t min_delivered = 10);

  /// Streaming fit: one pass over a SampleSource (DESIGN.md §D), so
  /// statistics for sharded on-disk sets never materialize the data.
  /// Accumulation order equals the in-memory overload's, so moments are
  /// bitwise-identical for the same samples.
  static Scaler fit(SampleSource& train, std::uint64_t min_delivered = 10);

  /// Rebuild a scaler from previously fitted statistics — how a model
  /// bundle restores the exact training-set moments at deployment time
  /// instead of re-fitting on whatever dataset happens to be at hand
  /// (re-fitting on a different set silently shifts every prediction).
  /// Throws std::invalid_argument on non-finite or non-positive stddev.
  static Scaler from_moments(const Moments& traffic, const Moments& capacity,
                             const Moments& queue, const Moments& log_delay,
                             const Moments& log_jitter);

  [[nodiscard]] double traffic(double bps) const {
    return traffic_.normalize(bps);
  }
  [[nodiscard]] double capacity(double bps) const {
    return capacity_.normalize(bps);
  }
  [[nodiscard]] double queue(std::uint32_t pkts) const {
    return queue_.normalize(static_cast<double>(pkts));
  }
  /// Label transform: z-scored log(delay).
  [[nodiscard]] double delay_to_target(double delay_s) const;
  [[nodiscard]] double target_to_delay(double target) const;
  /// Jitter (delay variance) label transform: z-scored log(jitter).
  /// RouteNet supports jitter as an alternative regression target
  /// (paper abstract); fit() collects its statistics alongside delay.
  [[nodiscard]] double jitter_to_target(double jitter_s2) const;
  [[nodiscard]] double target_to_jitter(double target) const;

  [[nodiscard]] const Moments& traffic_moments() const noexcept {
    return traffic_;
  }
  [[nodiscard]] const Moments& capacity_moments() const noexcept {
    return capacity_;
  }
  [[nodiscard]] const Moments& queue_moments() const noexcept {
    return queue_;
  }
  [[nodiscard]] const Moments& log_delay_moments() const noexcept {
    return log_delay_;
  }
  [[nodiscard]] const Moments& log_jitter_moments() const noexcept {
    return log_jitter_;
  }

 private:
  Moments traffic_, capacity_, queue_, log_delay_, log_jitter_;
};

// -- scale-invariant features (DESIGN.md §G) -------------------------------
//
// Dimensionless per-entity inputs for the train-small/serve-huge mode
// (ModelConfig::scale_invariant_features): ratios of sample-local
// quantities, no fitted statistics involved, so they stay in the same
// range on a 300-node graph as on the 14-node training topologies.

/// Per-link utilization: sum of the traffic of every path crossing the
/// link, divided by the link capacity.  One entry per link.  Throws
/// std::out_of_range for a path link id without a link or a capacity.
[[nodiscard]] std::vector<double> link_utilization(const Sample& s);

/// Per-path load: offered traffic over the bottleneck (minimum) capacity
/// along the path.  One entry per path; 0 for empty paths.  Throws
/// std::out_of_range for a path link id without a link or a capacity.
[[nodiscard]] std::vector<double> path_bottleneck_load(const Sample& s);

/// Per-node queue occupancy fraction: queue_pkts over the standard queue
/// size (topo::kStandardQueuePackets), i.e. buffer capacity in units of
/// the default provisioning.  One entry per node.  Throws
/// std::out_of_range when queue_pkts has fewer than num_nodes entries.
[[nodiscard]] std::vector<double> node_queue_fraction(const Sample& s);

}  // namespace rnx::data
