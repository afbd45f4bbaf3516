// RouteNet: one model class for both architectures of the paper.
//
// A model maps one dataset sample (topology + routing + traffic [+ queue
// sizes]) to one prediction per path: the z-scored log mean delay (see
// data::Scaler).  Per message-passing iteration:
//   1. path update — RNN_P consumes each path's element sequence
//      (position-vectorized through nn::GruSweep, which records one tape
//      node per iteration when training; see core/plan.hpp); the RNN
//      output at an element's position is the path's message to that
//      element;
//   2. link update — RNN_L over the summed positional messages from the
//      paths crossing the link;
//   3. node update (extended only) — RNN_N over the element-wise sum of
//      the states of all paths traversing the node
//      (ModelConfig::node_rule selects the paper's rule or the
//      positional-message ablation).
// After T iterations a feed-forward readout maps each path state to the
// prediction.
//
// The entity set comes from ModelKind.  kOriginal (Rusek et al., SOSR
// 2019) has paths and links: the path sequence is link1-link2-... and
// queue sizes are not observable — the gap the Fig. 2 comparison
// measures.  kExtended (the paper's contribution, §2) adds the node
// (forwarding device): the path sequence interleaves node1-link1-node2-
// link2-..., and node features (queue size) enter through the initial
// node states.  Both kinds are deterministic functions of their weights;
// all stochasticity lives in initialization and training.
#pragma once

#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "data/normalize.hpp"
#include "data/sample.hpp"
#include "nn/gru.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"

namespace rnx::util {
class ThreadPool;
}

namespace rnx::core {

class MpPlan;
class PlanCache;

class Model {
 public:
  /// A freshly initialized model of `kind`.  Parameters, in
  /// named_params() order: rnn_p (init_seed), rnn_l (init_seed+1),
  /// rnn_n (init_seed+3, extended only), readout (init_seed+2).  Throws
  /// std::invalid_argument for an unknown kind or scenario features on a
  /// state narrower than kScenarioFeatureMinDim.
  Model(ModelKind kind, ModelConfig cfg);
  Model(const Model&) = delete;  // Vars share storage: use clone()
  Model& operator=(const Model&) = delete;

  /// Predictions (P x 1 Var) for every path of the sample, in the
  /// sample's path order.  Differentiable; wrap in nn::NoGradGuard for
  /// inference.  Throws std::invalid_argument naming the entity when an
  /// input feature is not finite (the initial-state functions below).
  ///
  /// `pool` lets an untaped forward borrow idle lanes (DESIGN.md §T):
  /// with two or more lanes, the path rows split into contiguous ranges
  /// that lanes step through every position on their own, and the link
  /// and node sums, entity updates and readout split by rows.  Each sum
  /// is formed in the serial (position, row) order, so the predictions
  /// equal the serial forward's bit for bit for any lane count.  Every
  /// index and feature check runs before a lane starts, so a bad sample
  /// throws what the serial forward throws.  The pool is taken with
  /// try_parallel_for: a pool busy with another job runs the forward
  /// inline.  Ignored while a tape records (the trainer passes none).
  [[nodiscard]] nn::Var forward(const data::Sample& sample,
                                const data::Scaler& scaler,
                                util::ThreadPool* pool = nullptr) const;

  /// Bytes a split forward of `sample` allocates on top of the serial
  /// forward's: the captured link-position states (and node-position
  /// states under positional node messages) and the per-entity entry
  /// lists.  0 when it allocates none of these: T <= 1, or the unfused
  /// op-by-op route, which never splits.
  [[nodiscard]] std::size_t split_arena_bytes(
      const data::Sample& sample) const;

  /// "routenet" / "routenet-ext" (bench curve keys, log prefixes).
  [[nodiscard]] std::string name() const;
  /// Stable architecture tag ("orig"/"ext" on disk and CLI); what a
  /// model bundle persists so load can reconstruct the same entity set.
  [[nodiscard]] ModelKind kind() const noexcept { return kind_; }
  [[nodiscard]] nn::NamedParams named_params() const;
  [[nodiscard]] const ModelConfig& config() const noexcept { return cfg_; }

  /// Deep copy: same architecture and current weight values, independent
  /// tape nodes.  The data-parallel trainer clones one replica per lane
  /// so concurrent backward sweeps never share tape state (DESIGN.md §T).
  [[nodiscard]] std::unique_ptr<Model> clone() const;

  /// Attach a message-passing plan memo (nullptr detaches).  The cache is
  /// not owned; it must outlive every forward() issued while attached.
  /// Only the engines a serve::ModelRegistry builds attach one, the
  /// registry's shared cache (their models are then reachable only as
  /// const); without a cache every forward builds its plan.
  void set_plan_cache(PlanCache* cache) noexcept { plan_cache_ = cache; }
  [[nodiscard]] PlanCache* plan_cache() const noexcept { return plan_cache_; }

  /// Batched inference: predictions (value tensors, one P x 1 per sample)
  /// for a span of samples, in order.  Runs under NoGradGuard; with a
  /// pool, samples are evaluated concurrently (forward() only reads the
  /// weights, so lanes can share this model), and a lone sample's
  /// forward splits over the pool instead.
  [[nodiscard]] std::vector<nn::Tensor> forward_batch(
      std::span<const data::Sample> samples, const data::Scaler& scaler,
      util::ThreadPool* pool = nullptr) const;

  /// Scattered-batch inference: as forward_batch, but over sample
  /// *pointers* so the batch can gather samples that are not contiguous
  /// in memory — plan-cache keying by sample address requires passing
  /// the original objects, never copies.  A non-null `errors` vector
  /// (resized to samples.size()) captures each sample's forward
  /// exception in its own slot instead of failing the whole batch, so
  /// InferenceEngine::predict_batch can rethrow the first bad sample in
  /// sample order; the corresponding output tensor stays empty.  With `errors`
  /// null, the first exception propagates as in forward_batch.  A
  /// non-null `skip` mask (one entry per sample) leaves the marked slots
  /// as empty tensors without paying their forward pass — eval uses it
  /// for samples with no label-valid paths.  The pool is acquired with
  /// try_parallel_for: if another job owns it, this batch runs inline on
  /// the calling thread rather than blocking.
  [[nodiscard]] std::vector<nn::Tensor> forward_batch(
      std::span<const data::Sample* const> samples,
      const data::Scaler& scaler, util::ThreadPool* pool = nullptr,
      std::vector<std::exception_ptr>* errors = nullptr,
      const std::vector<char>* skip = nullptr) const;

  /// Weight persistence via nn::serialize (strict name/shape matching);
  /// saves are atomic, so a failed save keeps the previous file.
  void save_weights(const std::string& path) const;
  void load_weights(const std::string& path);

  /// Copy every parameter value of `src` into this model (shapes/names
  /// must match — same architecture).  Used for replica weight sync.
  void copy_params_from(const Model& src);

 private:
  /// The plan for (sample, this kind's entity set): served from the
  /// attached cache when present, else built into `local` (which owns it
  /// either way).
  [[nodiscard]] const MpPlan& plan_for(
      const data::Sample& sample, std::shared_ptr<const MpPlan>& local) const;
  /// The path RNN's index guards (GRUCell::check_indexed) over every
  /// position of `plan`, in position order: run once per forward, before
  /// any state is stepped, so no iteration re-checks the same spans.
  void check_positions(const MpPlan& plan, const nn::Var& h_path,
                       const nn::Var& h_link, const nn::Var& h_node) const;
  /// The forward after its initial states and mean normalizers, split
  /// over `pool` (core/split_forward.cpp).
  [[nodiscard]] nn::Var forward_split(const MpPlan& plan, nn::Var h_path,
                                      nn::Var h_link, nn::Var h_node,
                                      const nn::Var& link_inv_count,
                                      const nn::Var& node_inv_count,
                                      util::ThreadPool& pool) const;

  ModelKind kind_;
  ModelConfig cfg_;
  nn::GRUCell rnn_path_;
  nn::GRUCell rnn_link_;
  std::optional<nn::GRUCell> rnn_node_;  ///< extended only
  nn::Mlp readout_;
  PlanCache* plan_cache_ = nullptr;
};

/// Construct-from-config factory: the freshly initialized model of the
/// given kind (weights from cfg.init_seed, ready for load_weights), on
/// the heap so trainers and registries can hold it by pointer.
[[nodiscard]] std::unique_ptr<Model> make_model(ModelKind kind,
                                                const ModelConfig& cfg);

// -- initial entity states ------------------------------------------------
// Each throws std::invalid_argument naming the entity ("path 3", "link
// 5") when its column-0 feature is NaN or infinite.

/// (P x H) initial path states: column 0 carries the z-scored offered
/// traffic — or, with cfg.scale_invariant_features, the dimensionless
/// traffic-over-bottleneck-capacity ratio (DESIGN.md §G) — the rest
/// zero-padding.  With cfg.scenario_features (DESIGN.md §S), column 1
/// carries the path's scheduling class scaled to [0, 1] and columns 2..4
/// a one-hot of the scenario's traffic process; requires
/// kScenarioFeatureMinDim state width and a sample that records its
/// scenario (throws std::runtime_error otherwise — the bundle
/// feature-gating contract).
[[nodiscard]] nn::Var initial_path_states(const data::Sample& s,
                                          const data::Scaler& sc,
                                          const ModelConfig& cfg);
/// (L x H): column 0 carries the z-scored link capacity — or the
/// per-link utilization under cfg.scale_invariant_features; with
/// cfg.scenario_features, columns 1..3 a one-hot of the port's
/// scheduling policy (same gating contract as initial_path_states).
[[nodiscard]] nn::Var initial_link_states(const data::Sample& s,
                                          const data::Scaler& sc,
                                          const ModelConfig& cfg);
/// (N x H): column 0 carries the z-scored queue size — the node feature
/// this paper introduces — or the queue occupancy fraction under
/// cfg.scale_invariant_features.
[[nodiscard]] nn::Var initial_node_states(const data::Sample& s,
                                          const data::Scaler& sc,
                                          const ModelConfig& cfg);

}  // namespace rnx::core
