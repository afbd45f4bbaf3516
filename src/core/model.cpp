#include "core/model.hpp"

#include <cmath>
#include <cstdint>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>

#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "nn/ops.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rnx::core {

void Model::save_weights(const std::string& path) const {
  const nn::NamedParams params = named_params();
  nn::save_params(path, params);
}

void Model::load_weights(const std::string& path) {
  nn::NamedParams params = named_params();
  nn::load_params(path, params);
}

void Model::copy_params_from(const Model& src) {
  const nn::NamedParams from = src.named_params();
  nn::NamedParams to = named_params();
  if (from.size() != to.size())
    throw std::invalid_argument("copy_params_from: parameter count mismatch");
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i].first != to[i].first ||
        !from[i].second.value().same_shape(to[i].second.value()))
      throw std::invalid_argument("copy_params_from: parameter mismatch at " +
                                  from[i].first);
    to[i].second.mutable_value() = from[i].second.value();
  }
}

const MpPlan& Model::plan_for(const data::Sample& sample,
                              std::shared_ptr<const MpPlan>& local) const {
  const bool use_nodes = rnn_node_.has_value();
  if (plan_cache_ != nullptr) {
    local = plan_cache_->get(sample, use_nodes);
  } else {
    local = std::make_shared<const MpPlan>(build_plan(sample, use_nodes));
  }
  return *local;
}

std::vector<nn::Tensor> Model::forward_batch(
    std::span<const data::Sample> samples, const data::Scaler& scaler,
    util::ThreadPool* pool) const {
  std::vector<const data::Sample*> ptrs(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) ptrs[i] = &samples[i];
  return forward_batch(std::span<const data::Sample* const>(ptrs), scaler,
                       pool);
}

std::vector<nn::Tensor> Model::forward_batch(
    std::span<const data::Sample* const> samples, const data::Scaler& scaler,
    util::ThreadPool* pool, std::vector<std::exception_ptr>* errors,
    const std::vector<char>* skip) const {
  if (skip != nullptr && skip->size() != samples.size())
    throw std::invalid_argument("forward_batch: skip mask size mismatch");
  std::vector<nn::Tensor> out(samples.size());
  if (errors != nullptr) {
    errors->clear();
    errors->resize(samples.size());
  }
  // A lone sample's forward splits over the pool instead.
  util::ThreadPool* const split = samples.size() == 1 ? pool : nullptr;
  const auto eval_one = [&](std::size_t i) {
    if (skip != nullptr && (*skip)[i]) return;
    const nn::NoGradGuard guard;  // thread-local: set per lane
    if (errors == nullptr) {
      out[i] = forward(*samples[i], scaler, split).value();
      return;
    }
    try {
      out[i] = forward(*samples[i], scaler, split).value();
    } catch (...) {
      (*errors)[i] = std::current_exception();
    }
  };
  const bool pooled = pool != nullptr && pool->size() > 1 &&
                      samples.size() > 1 &&
                      pool->try_parallel_for(samples.size(), eval_one);
  if (!pooled)
    for (std::size_t i = 0; i < samples.size(); ++i) eval_one(i);
  return out;
}

namespace {

// A forward over fewer paths runs on one lane: a lane wake-up would
// cost more than it saves.
constexpr std::size_t kMinSplitPaths = 32;

// The bundle feature-gating contract (DESIGN.md §S): a model trained
// with scenario features must not silently read zeros off a
// pre-scenario-engine dataset.
void require_scenario(const data::Sample& s, std::size_t state_dim) {
  if (state_dim < kScenarioFeatureMinDim)
    throw std::runtime_error(
        "scenario features need state_dim >= " +
        std::to_string(kScenarioFeatureMinDim) + ", got " +
        std::to_string(state_dim));
  if (!s.scenario_recorded)
    throw std::runtime_error(
        "model expects scenario features, but this sample records no "
        "scenario (dataset predates the scenario engine — regenerate it "
        "with rnx_datagen, or use a model without scenario features)");
}

// A per-entity input vector must cover every entity the states index
// (samples reach forward() without Sample::validate()).
void require_per_entity(std::size_t have, std::size_t entities,
                        const char* what) {
  if (have < entities)
    throw std::out_of_range("initial states: " + std::to_string(have) + " " +
                            what + " for " + std::to_string(entities) +
                            " entities");
}

// A non-finite input feature would reach every path through the link and
// node sums, and the readout's ReLU maps NaN to 0, so every prediction of
// the sample would silently read the readout's output bias.  Column 0
// holds the input feature; the scenario columns come from checked enums.
void require_finite_features(const nn::Tensor& t, const char* entity) {
  for (std::size_t i = 0; i < t.rows(); ++i)
    if (!std::isfinite(t(i, 0)))
      throw std::invalid_argument("initial states: " + std::string(entity) +
                                  " " + std::to_string(i) +
                                  " has a non-finite input feature");
}

// Column of a scenario enum's one-hot input: `first` plus the value,
// which must name one of `count` members (a corrupted enum would write
// past the state row).
std::size_t one_hot_column(std::size_t first, std::uint32_t value,
                           std::uint32_t count, const char* what) {
  if (value >= count)
    throw std::out_of_range("initial states: " + std::string(what) + " " +
                            std::to_string(value) + " out of range (" +
                            std::to_string(count) + " known)");
  return first + value;
}

enum class Entity { kLink, kNode };

using IndexSpan = std::span<const nn::Index>;

// Mean-aggregation normalizer (ModelConfig::link_mean_aggregation,
// node_mean_aggregation): a constant (entities x H) multiplier whose row
// e is 1/count(e), or 0 when nothing reaches e.  A link's count is its
// (path, position) messages — its occurrences across all paths; a
// node's is its (path, node) incidences.
nn::Var inv_count_var(const MpPlan& plan, Entity entity,
                      std::size_t state_dim) {
  const std::size_t rows =
      entity == Entity::kLink ? plan.num_links : plan.num_nodes;
  std::vector<double> counts(rows, 0.0);
  // Ids come from the sample unchecked (build_plan copies them as is);
  // reject them with the gather's exception type instead of writing past
  // `counts`.
  const auto count = [&](nn::Index e) {
    if (e >= rows)
      throw std::out_of_range("mean aggregation: element id out of range");
    counts[e] += 1.0;
  };
  if (entity == Entity::kLink) {
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      const PlanPosition pos = plan.position(p);
      if (pos.is_node) continue;
      for (const auto l : pos.elem_ids) count(l);
    }
  } else {
    for (const auto n : plan.inc_node_ids) count(n);
  }
  nn::Tensor inv(rows, state_dim);
  for (std::size_t e = 0; e < rows; ++e) {
    const double v = counts[e] > 0.0 ? 1.0 / counts[e] : 0.0;
    for (std::size_t c = 0; c < state_dim; ++c) inv(e, c) = v;
  }
  return nn::constant(std::move(inv));
}

// Accumulate one position's messages into an entity's (rows x H) sum.
void accumulate(nn::Var& sum, const nn::Var& msg) {
  sum = sum.defined() ? nn::add(sum, msg) : msg;
}

// One entity update: RNN step over the aggregated messages, normalized
// in place to a mean when `inv_count` is set.  No messages leaves `h` as
// is.
void update_entity(nn::Var& h, nn::Var& msg, const nn::Var& inv_count,
                   const nn::GRUCell& rnn) {
  if (!msg.defined()) return;
  if (inv_count.defined()) msg = nn::mul(msg, inv_count);
  h = rnn.step(msg, h);
}

nn::GRUCell make_cell(const ModelConfig& cfg, std::uint64_t seed_offset,
                      const char* name) {
  util::RngStream rng(cfg.init_seed + seed_offset);
  return nn::GRUCell(cfg.state_dim, cfg.state_dim, rng, name);
}

}  // namespace

nn::Var initial_path_states(const data::Sample& s, const data::Scaler& sc,
                            const ModelConfig& cfg) {
  nn::Tensor t(s.paths.size(), cfg.state_dim);
  if (cfg.scale_invariant_features) {
    const std::vector<double> load = data::path_bottleneck_load(s);
    for (std::size_t i = 0; i < s.paths.size(); ++i) t(i, 0) = load[i];
  } else {
    for (std::size_t i = 0; i < s.paths.size(); ++i)
      t(i, 0) = sc.traffic(s.paths[i].traffic_bps);
  }
  if (cfg.scenario_features) {
    require_scenario(s, cfg.state_dim);
    const double class_span =
        s.scenario.priority_classes > 1
            ? static_cast<double>(s.scenario.priority_classes - 1)
            : 1.0;
    const std::size_t traffic_col =
        one_hot_column(2, static_cast<std::uint32_t>(s.scenario.traffic),
                       sim::kNumTrafficProcesses, "traffic process");
    for (std::size_t i = 0; i < s.paths.size(); ++i) {
      t(i, 1) = static_cast<double>(s.paths[i].priority_class) / class_span;
      t(i, traffic_col) = 1.0;
    }
  }
  require_finite_features(t, "path");
  return nn::constant(std::move(t));
}

nn::Var initial_link_states(const data::Sample& s, const data::Scaler& sc,
                            const ModelConfig& cfg) {
  require_per_entity(s.link_capacity_bps.size(), s.num_links(),
                     "link capacities");
  nn::Tensor t(s.num_links(), cfg.state_dim);
  if (cfg.scale_invariant_features) {
    const std::vector<double> util = data::link_utilization(s);
    for (std::size_t l = 0; l < s.num_links(); ++l) t(l, 0) = util[l];
  } else {
    for (std::size_t l = 0; l < s.num_links(); ++l)
      t(l, 0) = sc.capacity(s.link_capacity_bps[l]);
  }
  if (cfg.scenario_features) {
    require_scenario(s, cfg.state_dim);
    const std::size_t policy_col =
        one_hot_column(1, static_cast<std::uint32_t>(s.scenario.policy),
                       sim::kNumSchedulerPolicies, "scheduler policy");
    for (std::size_t l = 0; l < s.num_links(); ++l) t(l, policy_col) = 1.0;
  }
  require_finite_features(t, "link");
  return nn::constant(std::move(t));
}

nn::Var initial_node_states(const data::Sample& s, const data::Scaler& sc,
                            const ModelConfig& cfg) {
  require_per_entity(s.queue_pkts.size(), s.num_nodes, "queue sizes");
  nn::Tensor t(s.num_nodes, cfg.state_dim);
  if (cfg.scale_invariant_features) {
    const std::vector<double> frac = data::node_queue_fraction(s);
    for (std::size_t n = 0; n < s.num_nodes; ++n) t(n, 0) = frac[n];
  } else {
    for (std::size_t n = 0; n < s.num_nodes; ++n)
      t(n, 0) = sc.queue(s.queue_pkts[n]);
  }
  require_finite_features(t, "node");
  return nn::constant(std::move(t));
}

// ---- the model -------------------------------------------------------------

Model::Model(ModelKind kind, ModelConfig cfg)
    : kind_(kind),
      cfg_(cfg),
      rnn_path_(make_cell(cfg, 0, "rnn_p")),
      rnn_link_(make_cell(cfg, 1, "rnn_l")),
      readout_([&] {
        util::RngStream rng(cfg.init_seed + 2);
        return nn::Mlp({cfg.state_dim, cfg.readout_hidden, 1},
                       nn::Activation::kRelu, rng, "readout");
      }()) {
  if (kind_ != ModelKind::kOriginal && kind_ != ModelKind::kExtended)
    throw std::invalid_argument("Model: invalid model kind");
  if (cfg_.scenario_features && cfg_.state_dim < kScenarioFeatureMinDim)
    throw std::invalid_argument(
        "Model: scenario features need state_dim >= " +
        std::to_string(kScenarioFeatureMinDim));
  if (kind_ == ModelKind::kExtended) rnn_node_ = make_cell(cfg, 3, "rnn_n");
  rnn_path_.set_fused(cfg_.fused_gru);
  rnn_link_.set_fused(cfg_.fused_gru);
  if (rnn_node_) rnn_node_->set_fused(cfg_.fused_gru);
}

std::unique_ptr<Model> make_model(ModelKind kind, const ModelConfig& cfg) {
  return std::make_unique<Model>(kind, cfg);
}

std::string Model::name() const {
  return kind_ == ModelKind::kOriginal ? "routenet" : "routenet-ext";
}

void Model::check_positions(const MpPlan& plan, const nn::Var& h_path,
                            const nn::Var& h_link,
                            const nn::Var& h_node) const {
  for (std::size_t p = 0; p < plan.num_positions(); ++p) {
    const PlanPosition pos = plan.position(p);
    rnn_path_.check_indexed(pos.is_node ? h_node : h_link, pos.elem_ids,
                            h_path.rows(), pos.path_rows);
  }
}

nn::Var Model::forward(const data::Sample& sample,
                       const data::Scaler& scaler,
                       util::ThreadPool* pool) const {
  std::shared_ptr<const MpPlan> plan_holder;
  const MpPlan& plan = plan_for(sample, plan_holder);
  const std::size_t dim = cfg_.state_dim;
  nn::Var h_path = initial_path_states(sample, scaler, cfg_);
  nn::Var h_link = initial_link_states(sample, scaler, cfg_);
  nn::Var h_node;
  if (rnn_node_) h_node = initial_node_states(sample, scaler, cfg_);

  // Optional mean normalizers (see ModelConfig); off leaves the forward
  // bitwise-unchanged.
  nn::Var node_inv_count, link_inv_count;
  if (rnn_node_ && cfg_.node_mean_aggregation)
    node_inv_count = inv_count_var(plan, Entity::kNode, dim);
  if (cfg_.link_mean_aggregation)
    link_inv_count = inv_count_var(plan, Entity::kLink, dim);
  if (pool != nullptr && pool->size() > 1 && nn::grad_disabled() &&
      cfg_.fused_gru && cfg_.iterations > 0 &&
      plan.num_paths >= kMinSplitPaths)
    return forward_split(plan, std::move(h_path), std::move(h_link),
                         std::move(h_node), link_inv_count, node_inv_count,
                         *pool);
  const bool positional_node_msgs =
      cfg_.node_rule == NodeUpdateRule::kPositionalMessages;
  // The sources keep their shapes across iterations, so one check of the
  // plan's indices covers every sweep's steps.
  if (cfg_.iterations > 0) check_positions(plan, h_path, h_link, h_node);

  for (std::size_t iter = 0; iter < cfg_.iterations; ++iter) {
    // The readout reads only the path states, so the last iteration
    // stops after the path RNN: its messages and entity updates would be
    // dead work (a taped backward would never visit them).  A T=1 model
    // therefore never reads plan.inc_node_ids, and nothing it does not
    // read is validated.
    const bool last = iter + 1 == cfg_.iterations;
    // The path RNN over every position: in place without a tape, one
    // tape node over all stepped rows with one (DESIGN.md §K).
    nn::GruSweep sweep(rnn_path_, h_path, {h_link, h_node},
                       plan.total_entries());
    nn::Var link_msg;  // (L x H) summed positional messages to links
    nn::Var node_msg;  // (N x H)
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      // Extended plans interleave: even positions read node states, odd
      // positions link states (paper Fig. 1).
      const PlanPosition pos = plan.position(p);
      sweep.step_unchecked(pos.is_node ? h_node : h_link, pos.elem_ids,
                           pos.path_rows);
      if (last) continue;
      // Each active path messages the element it just consumed: its new
      // state, in row order.
      if (!pos.is_node)
        accumulate(link_msg, sweep.messages(plan.num_links));
      else if (positional_node_msgs)
        accumulate(node_msg, sweep.messages(plan.num_nodes));
    }
    h_path = sweep.states();
    if (last) break;
    update_entity(h_link, link_msg, link_inv_count, rnn_link_);
    if (!rnn_node_) continue;
    if (!positional_node_msgs) {
      // The paper's rule: element-wise sum of the (freshly updated)
      // states of all paths traversing each node.
      const nn::Var gathered =
          nn::gather_rows(h_path, IndexSpan(plan.inc_path_rows));
      node_msg = nn::segment_sum(gathered, IndexSpan(plan.inc_node_ids),
                                 plan.num_nodes);
    }
    update_entity(h_node, node_msg, node_inv_count, *rnn_node_);
  }
  return readout_.forward(h_path);
}

std::unique_ptr<Model> Model::clone() const {
  auto copy = std::make_unique<Model>(kind_, cfg_);
  copy->copy_params_from(*this);
  return copy;
}

nn::NamedParams Model::named_params() const {
  nn::NamedParams out;
  for (auto& p : rnn_path_.named_params()) out.push_back(std::move(p));
  for (auto& p : rnn_link_.named_params()) out.push_back(std::move(p));
  if (rnn_node_)
    for (auto& p : rnn_node_->named_params()) out.push_back(std::move(p));
  for (auto& p : readout_.named_params()) out.push_back(std::move(p));
  return out;
}

}  // namespace rnx::core
