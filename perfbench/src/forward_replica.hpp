// Traced replica of the extended-RouteNet forward pass.
//
// The replica rebuilds core::ExtendedRouteNet::forward from the public
// pieces it is made of — core::build_plan, the initial-state builders,
// nn::gather_rows / scatter_rows / segment_sum, nn::GRUCell::step and
// nn::Mlp::forward — with the weights copied by name from a live model,
// and opens one span around each call.  Its predictions must be
// bitwise-equal to Model::forward on the same sample (the benchmark
// checks this on every traced run), which is what makes the per-stage
// split a measurement of the real computation.  Flop and byte counts are
// computed from tensor shapes, not measured.
#pragma once

#include <cstdint>

#include "core/model.hpp"
#include "nn/gru.hpp"
#include "nn/layers.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work done by the traced calls of one or more forwards, from shapes.
struct ForwardWork {
  std::uint64_t gru_calls = 0;
  double gru_flops = 0;      ///< matmul flops of every GRU step: 12*R*H^2
  double gather_bytes = 0;   ///< rows read + written + index bytes
  double scatter_bytes = 0;  ///< base copy + rows written + index bytes
  double segsum_bytes = 0;   ///< rows read + segments written + index bytes
  double plan_bytes = 0;     ///< core::MpPlan::bytes() of the built plans
};

class ForwardReplica {
 public:
  /// Copies every parameter of `model` by name.  Throws
  /// std::invalid_argument for a non-extended model or a config the
  /// replica does not mirror (link_mean_aggregation, positional node
  /// messages, scenario features).
  explicit ForwardReplica(const rnx::core::Model& model);

  /// One traced forward under the caller's NoGradGuard.  Spans:
  /// core.forward > {core.plan_build, core.state_init, nn.gather,
  /// nn.gru_path_step, nn.scatter, nn.segment_sum,
  /// core.entity_update > nn.gru_entity_step, core.readout}.
  [[nodiscard]] rnx::nn::Var forward(const rnx::data::Sample& sample,
                                     const rnx::data::Scaler& scaler,
                                     Tracer& tracer, std::uint64_t request,
                                     ForwardWork& work) const;

 private:
  rnx::core::ModelConfig cfg_;
  rnx::nn::GRUCell path_;
  rnx::nn::GRUCell link_;
  rnx::nn::GRUCell node_;
  rnx::nn::Mlp readout_;
};

}  // namespace perfbench
