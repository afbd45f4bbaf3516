#include "forward_replica.hpp"

#include <stdexcept>

#include "core/plan.hpp"
#include "nn/ops.hpp"

namespace perfbench {

using namespace rnx;

namespace {

nn::GRUCell make_cell(std::size_t dim, const char* name) {
  util::RngStream rng(0);  // weights are overwritten from the live model
  return nn::GRUCell(dim, dim, rng, name);
}

nn::Mlp make_readout(const core::ModelConfig& cfg) {
  util::RngStream rng(0);
  return nn::Mlp({cfg.state_dim, cfg.readout_hidden, 1}, nn::Activation::kRelu,
                 rng, "readout");
}

void copy_by_name(const nn::NamedParams& src,
                  const std::vector<std::pair<std::string, nn::Var>>& dst) {
  for (const auto& [name, var] : dst) {
    const nn::Var* found = nullptr;
    for (const auto& [src_name, src_var] : src)
      if (src_name == name) found = &src_var;
    if (found == nullptr || !found->value().same_shape(var.value()))
      throw std::invalid_argument("ForwardReplica: model has no parameter '" +
                                  name + "' of the replica's shape");
    nn::Var(var).mutable_value() = found->value();
  }
}

}  // namespace

ForwardReplica::ForwardReplica(const core::Model& model)
    : cfg_(model.config()),
      path_(make_cell(cfg_.state_dim, "rnn_p")),
      link_(make_cell(cfg_.state_dim, "rnn_l")),
      node_(make_cell(cfg_.state_dim, "rnn_n")),
      readout_(make_readout(cfg_)) {
  if (model.kind() != core::ModelKind::kExtended || cfg_.link_mean_aggregation ||
      cfg_.scenario_features ||
      cfg_.node_rule != core::NodeUpdateRule::kSumPathStates)
    throw std::invalid_argument(
        "ForwardReplica: mirrors only the default extended RouteNet");
  const nn::NamedParams src = model.named_params();
  copy_by_name(src, path_.named_params());
  copy_by_name(src, link_.named_params());
  copy_by_name(src, node_.named_params());
  copy_by_name(src, readout_.named_params());
  path_.set_fused(cfg_.fused_gru);
  link_.set_fused(cfg_.fused_gru);
  node_.set_fused(cfg_.fused_gru);
}

nn::Var ForwardReplica::forward(const data::Sample& sample,
                                const data::Scaler& scaler, Tracer& tracer,
                                std::uint64_t request,
                                ForwardWork& work) const {
  constexpr double kD = sizeof(double);
  constexpr double kI = sizeof(nn::Index);
  const auto h_dim = static_cast<double>(cfg_.state_dim);
  const auto gru_flops = [&](const nn::Var& x) {
    ++work.gru_calls;
    work.gru_flops += 12.0 * static_cast<double>(x.rows()) * h_dim * h_dim;
  };

  const Tracer::Scope root(tracer, "core.forward", request);
  core::MpPlan plan;
  {
    const Tracer::Scope s(tracer, "core.plan_build", request);
    plan = core::build_plan(sample, /*use_nodes=*/true);
  }
  work.plan_bytes += static_cast<double>(plan.bytes());

  nn::Var h_path, h_link, h_node, node_inv_count;
  {
    const Tracer::Scope s(tracer, "core.state_init", request);
    h_path = core::initial_path_states(sample, scaler, cfg_);
    h_link = core::initial_link_states(sample, scaler, cfg_);
    h_node = core::initial_node_states(sample, scaler, cfg_);
    if (cfg_.node_mean_aggregation) {
      std::vector<double> counts(plan.num_nodes, 0.0);
      for (const auto n : plan.inc_node_ids) counts[n] += 1.0;
      nn::Tensor inv(plan.num_nodes, cfg_.state_dim);
      for (std::size_t n = 0; n < plan.num_nodes; ++n) {
        const double v = counts[n] > 0.0 ? 1.0 / counts[n] : 0.0;
        for (std::size_t c = 0; c < cfg_.state_dim; ++c) inv(n, c) = v;
      }
      node_inv_count = nn::constant(std::move(inv));
    }
  }

  const auto paths = static_cast<double>(plan.num_paths);
  const auto links = static_cast<double>(plan.num_links);
  for (std::size_t iter = 0; iter < cfg_.iterations; ++iter) {
    nn::Var hidden = h_path;
    nn::Var link_msg;
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      const core::PlanPosition pos = plan.position(p);
      const auto rows = static_cast<double>(pos.path_rows.size());
      nn::Var x, h;
      {
        const Tracer::Scope s(tracer, "nn.gather", request);
        x = pos.is_node ? nn::gather_rows(h_node, pos.elem_ids)
                        : nn::gather_rows(h_link, pos.elem_ids);
        h = nn::gather_rows(hidden, pos.path_rows);
      }
      work.gather_bytes += 2.0 * (2.0 * rows * h_dim * kD + rows * kI);
      nn::Var h2;
      {
        const Tracer::Scope s(tracer, "nn.gru_path_step", request);
        h2 = path_.step(x, h);
      }
      gru_flops(x);
      {
        const Tracer::Scope s(tracer, "nn.scatter", request);
        hidden = nn::scatter_rows(hidden, pos.path_rows, h2);
      }
      work.scatter_bytes +=
          2.0 * paths * h_dim * kD + rows * h_dim * kD + rows * kI;
      if (!pos.is_node) {
        const Tracer::Scope s(tracer, "nn.segment_sum", request);
        const nn::Var msg = nn::segment_sum(h2, pos.elem_ids, plan.num_links);
        link_msg = link_msg.defined() ? nn::add(link_msg, msg) : msg;
        work.segsum_bytes +=
            rows * h_dim * kD + links * h_dim * kD + rows * kI;
      }
    }
    h_path = hidden;

    const Tracer::Scope entity(tracer, "core.entity_update", request);
    if (link_msg.defined()) {
      const Tracer::Scope s(tracer, "nn.gru_entity_step", request);
      h_link = link_.step(link_msg, h_link);
      gru_flops(link_msg);
    }
    const nn::Var gathered = nn::gather_rows(h_path, plan.inc_path_rows);
    nn::Var node_msg =
        nn::segment_sum(gathered, plan.inc_node_ids, plan.num_nodes);
    if (node_inv_count.defined()) node_msg = nn::mul(node_msg, node_inv_count);
    {
      const Tracer::Scope s(tracer, "nn.gru_entity_step", request);
      h_node = node_.step(node_msg, h_node);
      gru_flops(node_msg);
    }
  }

  const Tracer::Scope s(tracer, "core.readout", request);
  return readout_.forward(h_path);
}

}  // namespace perfbench
