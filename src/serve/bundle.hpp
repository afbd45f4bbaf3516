// Self-contained model bundles (.rnxb): everything inference needs in
// one integrity-checked file.
//
// save_params (.rnxw) persists weights only, so a deployed model used to
// re-fit its data::Scaler from whatever dataset --scaler-from pointed at
// — point it at anything but the original training set and every
// prediction silently drifts (wrong z-score moments).  A bundle closes
// that hole by persisting the full inference contract:
//
//   magic "RNXB", u32 version, u64 body size, u64 FNV-1a checksum (the
//   shared envelope of util/binio, written atomically), body:
//     u8  model kind (core::ModelKind: 0 = orig, 1 = ext)
//     u8  prediction target (core::PredictionTarget)
//     u64 min_delivered        (label-quality threshold used in training)
//     u64 state_dim, u64 readout_hidden, u64 iterations
//     u8  node_rule, u8 node_mean_aggregation, u8 fused_gru
//     u8  scenario_features    (v2+ only; v1 bundles imply 0)
//     u8  scale_invariant_features, u8 link_mean_aggregation
//                              (v3+ only; older bundles imply 0)
//     u8  weight_encoding      (v4 only; nn::WeightEncoding, older
//                               bundles imply 0 = fp64)
//     u64 init_seed
//     5 x (f64 mean, f64 stddev)  Scaler moments: traffic, capacity,
//                                 queue, log_delay, log_jitter
//     embedded weight section (nn::save_params verbatim): "RNXW" when
//     weight_encoding is fp64, else "RNXQ"; its magic must agree with
//     weight_encoding
//
// The checksum covers the whole body, so truncation or bit rot fails
// loudly at load instead of surfacing as subtly wrong predictions.
// Versioning rule: any layout change bumps kBundleVersion; readers
// reject unknown versions rather than guessing, but keep loading every
// older version (v1 bundles predate the scenario engine and must keep
// serving bitwise-identically; see DESIGN.md §B, §S).  save_bundle
// writes the v3 layout.  v4 bundles (fp16 / int8 weights) can no
// longer be written but still load; tests/fixtures pins two of them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/model.hpp"
#include "data/normalize.hpp"
#include "nn/serialize.hpp"

namespace rnx::serve {

/// Newest version load_bundle reads: v4 adds the weight_encoding byte.
inline constexpr std::uint32_t kBundleVersion = 4;
inline constexpr std::uint32_t kMinBundleVersion = 1;
/// Version save_bundle writes: the v3 layout (no weight_encoding byte).
inline constexpr std::uint32_t kFp64BundleVersion = 3;

/// A deserialized bundle: the reconstructed model (weights loaded) plus
/// the inference-time context it was trained with.
struct ModelBundle {
  std::unique_ptr<core::Model> model;
  data::Scaler scaler;
  core::PredictionTarget target = core::PredictionTarget::kDelay;
  std::uint64_t min_delivered = 10;
  /// How the embedded weights were stored on disk.  Weights are always
  /// dequantized to fp64 at load; this records provenance for logging.
  nn::WeightEncoding encoding = nn::WeightEncoding::kFp64;

  [[nodiscard]] core::ModelKind kind() const { return model->kind(); }
};

/// Atomically write model weights + config + scaler moments + target as
/// one .rnxb file; a failed save leaves any previous file at `path`
/// intact.  The file is the v3 layout with an fp64 weight section.
/// Throws std::runtime_error on I/O failure.
void save_bundle(const std::string& path, const core::Model& model,
                 const data::Scaler& scaler, core::PredictionTarget target,
                 std::uint64_t min_delivered);

/// Load a bundle, reconstructing the model via core::make_model.  Throws
/// std::runtime_error with a descriptive message on missing file, bad
/// magic, unsupported version, checksum mismatch, invalid model kind /
/// target byte, or truncation — never a huge allocation.
[[nodiscard]] ModelBundle load_bundle(const std::string& path);

}  // namespace rnx::serve
