// Hyperparameters of the RouteNet model (both kinds) and its vocabulary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace rnx::core {

/// Which per-path metric the readout regresses.  RouteNet supports both
/// (paper abstract: "delay or jitter"); the Fig. 2 evaluation uses delay.
enum class PredictionTarget : std::uint8_t { kDelay, kJitter };

/// The two architectures; the stable on-disk / CLI vocabulary is
/// "orig" / "ext" (model bundles persist this as one byte).
enum class ModelKind : std::uint8_t { kOriginal = 0, kExtended = 1 };

[[nodiscard]] constexpr std::string_view to_string(ModelKind k) noexcept {
  return k == ModelKind::kOriginal ? "orig" : "ext";
}
[[nodiscard]] constexpr std::string_view to_string(
    PredictionTarget t) noexcept {
  return t == PredictionTarget::kDelay ? "delay" : "jitter";
}
[[nodiscard]] inline std::optional<ModelKind> model_kind_from_string(
    std::string_view s) noexcept {
  if (s == "orig") return ModelKind::kOriginal;
  if (s == "ext") return ModelKind::kExtended;
  return std::nullopt;
}
[[nodiscard]] inline std::optional<PredictionTarget> target_from_string(
    std::string_view s) noexcept {
  if (s == "delay") return PredictionTarget::kDelay;
  if (s == "jitter") return PredictionTarget::kJitter;
  return std::nullopt;
}

/// How the node states are updated in the extended architecture.
enum class NodeUpdateRule : std::uint8_t {
  /// The paper's rule (§2): element-wise sum of the (updated) states of
  /// all paths that traverse the node, fed to RNN_N.
  kSumPathStates,
  /// Ablation variant (DESIGN.md A3): aggregate the path RNN's positional
  /// outputs at node positions, symmetric to how links receive messages.
  kPositionalMessages,
};

struct ModelConfig {
  std::size_t state_dim = 16;       ///< path/link/node state width
  std::size_t readout_hidden = 32;  ///< readout MLP hidden width
  std::size_t iterations = 4;       ///< message-passing rounds (T)
  NodeUpdateRule node_rule = NodeUpdateRule::kSumPathStates;
  /// Normalize the node aggregation by the number of contributing paths
  /// (mean instead of the paper's plain sum).  Sum magnitudes scale with
  /// topology size (552 paths on GEANT2 vs 182 on NSFNET), which hurts
  /// transfer to unseen topologies; the mean is scale-free.  Ablated by
  /// bench_ablation_node_update.
  bool node_mean_aggregation = true;
  /// Use the fused single-tape-node GRU kernel (nn/gru.hpp).  Off routes
  /// every RNN step through the op-by-op composition — the serial
  /// baseline of bench_parallel_speedup and the gradcheck reference.
  bool fused_gru = true;
  /// Feed the scenario-engine features (DESIGN.md §S): per-link
  /// scheduling-policy one-hot, per-path scheduling class and
  /// traffic-process one-hot.  Requires state_dim >=
  /// kScenarioFeatureMinDim and samples that record a scenario; models
  /// trained with this on refuse pre-scenario (v1) datasets with a
  /// descriptive error instead of silently reading zeros.
  bool scenario_features = false;
  /// Feed scale-invariant inputs instead of raw z-scored rates
  /// (DESIGN.md §G): column 0 becomes per-link utilization (summed path
  /// traffic / capacity), per-path traffic over the bottleneck capacity,
  /// and per-node queue occupancy fraction — all dimensionless, so a
  /// model trained on small topologies transfers to much larger ones
  /// ("Scaling Graph-based Deep Learning models to larger networks",
  /// PAPERS.md).  Persisted in the bundle (v3); v1/v2 bundles imply off.
  bool scale_invariant_features = false;
  /// Normalize the link aggregation by the number of contributing
  /// (path, position) messages — the symmetric twin of
  /// node_mean_aggregation for the link update's segment_sum.  Default
  /// off: the forward is bitwise-unchanged unless enabled.
  bool link_mean_aggregation = false;
  std::uint64_t init_seed = 42;     ///< weight initialization stream
};

/// Smallest state width that fits the scenario feature block: column 0
/// carries the base feature, columns 1..4 the scenario channels.
inline constexpr std::size_t kScenarioFeatureMinDim = 5;

}  // namespace rnx::core
