// Cross-module property tests: invariances that must hold by
// construction, checked on randomized instances.
//
//  * GNN relabelling equivariance: renaming node ids (and permuting all
//    attribute arrays consistently) must permute predictions, nothing
//    else — the defining property of a graph neural network.  Renaming
//    link ids leaves them unchanged; reordering the paths permutes them;
//    appending a disjoint copy of the graph leaves the original paths'
//    predictions unchanged.
//  * Simulator scale invariance: multiplying all capacities and rates by
//    the same factor divides delays by that factor and preserves loss.
//  * Routing determinism under weight permutation consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "sim/simulator.hpp"
#include "topo/traffic.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;

// Apply a node relabelling perm (new_id = perm[old_id]) to a sample.
// Link ids keep their order; only endpoints and per-node arrays move.
data::Sample relabel(const data::Sample& s,
                     const std::vector<topo::NodeId>& perm) {
  data::Sample out = s;
  for (auto& l : out.links) {
    l.src = perm[l.src];
    l.dst = perm[l.dst];
  }
  for (topo::NodeId n = 0; n < s.num_nodes; ++n)
    out.queue_pkts[perm[n]] = s.queue_pkts[n];
  for (auto& p : out.paths) {
    p.src = perm[p.src];
    p.dst = perm[p.dst];
    for (auto& n : p.nodes) n = perm[n];
  }
  return out;
}

class RelabelProperty : public ::testing::TestWithParam<int> {};

TEST_P(RelabelProperty, PredictionsAreEquivariant) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 5'000;
  util::RngStream rng(static_cast<std::uint64_t>(GetParam()));
  const data::Sample s = data::generate_sample(topo::ring(6), cfg, rng);
  const data::Scaler sc = data::Scaler::fit({&s, 1}, 1);

  // Random permutation of node ids.
  std::vector<topo::NodeId> perm(s.num_nodes);
  for (topo::NodeId n = 0; n < s.num_nodes; ++n) perm[n] = n;
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  const data::Sample r = relabel(s, perm);
  r.validate();

  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.iterations = 2;
  const nn::NoGradGuard guard;
  for (const bool extended : {false, true}) {
    std::unique_ptr<core::Model> m;
    if (extended)
      m = core::make_model(core::ModelKind::kExtended, mc);
    else
      m = core::make_model(core::ModelKind::kOriginal, mc);
    const nn::Var a = m->forward(s, sc);
    const nn::Var b = m->forward(r, sc);
    // Path records keep their order under relabelling, so predictions
    // must match row for row (to FP round-off).
    ASSERT_EQ(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
      EXPECT_NEAR(a.value()(i, 0), b.value()(i, 0), 1e-9)
          << (extended ? "ext" : "orig") << " path " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelabelProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

/// A uniformly random permutation of 0..n-1.
template <class Id>
std::vector<Id> random_permutation(std::size_t n, util::RngStream& rng) {
  std::vector<Id> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Id>(i);
  for (std::size_t i = n; i > 1; --i)
    std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(i) - 1))]);
  return perm;
}

/// Predictions of both model kinds (one column each) for a sample.
std::vector<nn::Tensor> predict_both(const data::Sample& s,
                                     const data::Scaler& sc) {
  core::ModelConfig mc;
  mc.state_dim = 12;
  mc.iterations = 3;
  const nn::NoGradGuard guard;
  std::vector<nn::Tensor> out;
  for (const core::ModelKind kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended})
    out.push_back(core::Model(kind, mc).forward(s, sc).value());
  return out;
}

// Reordering and relabelling change which rows the position steps and
// segment sums read, and in what order messages are summed, so the
// predictions agree to round-off, not bit for bit.
constexpr double kReorderRelTol = 1e-12;

void expect_close(double got, double want, const std::string& ctx) {
  EXPECT_NEAR(got, want, kReorderRelTol * std::max(1.0, std::abs(want)))
      << ctx;
}

class PathOrderProperty : public ::testing::TestWithParam<int> {};

// Shuffling sample.paths shuffles the predictions the same way.
TEST_P(PathOrderProperty, PredictionsPermuteWithPaths) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 4'000;
  util::RngStream rng(static_cast<std::uint64_t>(100 + GetParam()));
  const data::Sample s = data::generate_sample(topo::nsfnet(), cfg, rng);
  const data::Scaler sc = data::Scaler::fit({&s, 1}, 1);
  const std::vector<std::size_t> perm =
      random_permutation<std::size_t>(s.paths.size(), rng);
  data::Sample r = s;
  for (std::size_t i = 0; i < s.paths.size(); ++i)
    r.paths[perm[i]] = s.paths[i];
  r.validate();

  const std::vector<nn::Tensor> a = predict_both(s, sc);
  const std::vector<nn::Tensor> b = predict_both(r, sc);
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].rows(), b[k].rows());
    for (std::size_t i = 0; i < a[k].rows(); ++i)
      expect_close(b[k](perm[i], 0), a[k](i, 0),
                   "kind " + std::to_string(k) + " path " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathOrderProperty, ::testing::Values(1, 2, 3));

class LinkRelabelProperty : public ::testing::TestWithParam<int> {};

// Renaming link ids (and moving the per-link arrays with them) leaves
// every path's prediction where it was.
TEST_P(LinkRelabelProperty, PredictionsAreInvariant) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 4'000;
  util::RngStream rng(static_cast<std::uint64_t>(200 + GetParam()));
  const data::Sample s = data::generate_sample(topo::nsfnet(), cfg, rng);
  const data::Scaler sc = data::Scaler::fit({&s, 1}, 1);
  const std::vector<topo::LinkId> perm =
      random_permutation<topo::LinkId>(s.num_links(), rng);
  data::Sample r = s;
  for (std::size_t l = 0; l < s.num_links(); ++l) {
    r.links[perm[l]] = s.links[l];
    r.link_capacity_bps[perm[l]] = s.link_capacity_bps[l];
  }
  for (auto& p : r.paths)
    for (auto& l : p.links) l = perm[l];
  r.validate();

  const std::vector<nn::Tensor> a = predict_both(s, sc);
  const std::vector<nn::Tensor> b = predict_both(r, sc);
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].rows(), b[k].rows());
    for (std::size_t i = 0; i < a[k].rows(); ++i)
      expect_close(b[k](i, 0), a[k](i, 0),
                   "kind " + std::to_string(k) + " path " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkRelabelProperty,
                         ::testing::Values(1, 2, 3));

/// `s` plus a disjoint copy of itself: the copy's nodes, links and paths
/// are appended with every id offset past the original's.
data::Sample with_disjoint_copy(const data::Sample& s) {
  const topo::NodeId n0 = s.num_nodes;
  const auto l0 = static_cast<topo::LinkId>(s.num_links());
  data::Sample out = s;
  out.num_nodes = 2 * n0;
  out.queue_pkts.insert(out.queue_pkts.end(), s.queue_pkts.begin(),
                        s.queue_pkts.end());
  out.link_capacity_bps.insert(out.link_capacity_bps.end(),
                               s.link_capacity_bps.begin(),
                               s.link_capacity_bps.end());
  for (topo::Link l : s.links) {
    l.src += n0;
    l.dst += n0;
    out.links.push_back(l);
  }
  for (data::PathRecord p : s.paths) {
    p.src += n0;
    p.dst += n0;
    for (auto& n : p.nodes) n += n0;
    for (auto& l : p.links) l += l0;
    out.paths.push_back(std::move(p));
  }
  return out;
}

class DisjointCopyProperty : public ::testing::TestWithParam<int> {};

// Messages only travel along links, so a second component that shares no
// node or link with the first cannot reach its paths: appending a
// relabelled copy of the whole graph leaves the original paths'
// predictions where they were.
TEST_P(DisjointCopyProperty, OriginalPredictionsUnchanged) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 4'000;
  util::RngStream rng(static_cast<std::uint64_t>(300 + GetParam()));
  const data::Sample s = data::generate_sample(topo::nsfnet(), cfg, rng);
  const data::Scaler sc = data::Scaler::fit({&s, 1}, 1);
  const data::Sample r = with_disjoint_copy(s);
  r.validate();

  const std::vector<nn::Tensor> a = predict_both(s, sc);
  const std::vector<nn::Tensor> b = predict_both(r, sc);
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(b[k].rows(), 2 * a[k].rows());
    for (std::size_t i = 0; i < a[k].rows(); ++i)
      expect_close(b[k](i, 0), a[k](i, 0),
                   "kind " + std::to_string(k) + " path " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointCopyProperty,
                         ::testing::Values(1, 2, 3));

class SimScaleProperty : public ::testing::TestWithParam<double> {};

TEST_P(SimScaleProperty, TimeRescalingInvariance) {
  // Speeding every link and every flow up by factor f is a pure change
  // of time units: delays shrink by f, loss and utilization unchanged
  // (statistically; we use the same seed so packet *counts* match
  // exactly and delays match up to FP error).
  const double f = GetParam();
  auto run = [&](double factor) {
    topo::Topology t = topo::line(3, 1e6 * factor);
    t.set_queue_size(1, 4);
    const topo::RoutingScheme rs = topo::hop_count_routing(t);
    topo::TrafficMatrix tm(3);
    tm.set(0, 2, 0.9e6 * factor);
    sim::SimConfig cfg;
    cfg.window_s = 40.0 / factor;
    cfg.warmup_s = 2.0 / factor;
    cfg.seed = 9;
    sim::Simulator s(t, rs, tm, cfg);
    return s.run();
  };
  const sim::SimResult base = run(1.0);
  const sim::SimResult fast = run(f);
  const auto& pb = base.path(0, 2);
  const auto& pf = fast.path(0, 2);
  EXPECT_EQ(pb.generated, pf.generated);
  EXPECT_EQ(pb.dropped, pf.dropped);
  EXPECT_NEAR(pf.mean_delay_s * f, pb.mean_delay_s,
              1e-9 * pb.mean_delay_s);
}

INSTANTIATE_TEST_SUITE_P(Factors, SimScaleProperty,
                         ::testing::Values(2.0, 8.0, 64.0));

TEST(TrafficScaleProperty, PredictionsChangeMonotonicallyWithLoad) {
  // Not exact math, but a sanity property the trained model must show:
  // scaling all traffic up never *decreases* the average predicted
  // delay by much after a little training.  Here we only check the
  // untrained model is at least sensitive, and a trained one moves the
  // right way on average.
  data::GeneratorConfig cfg;
  cfg.target_packets = 12'000;
  // All-standard queues: with drop-tail 1-packet queues, more load can
  // legitimately *lower* the mean delay of delivered packets, so the
  // monotone ground truth only exists in the lossless-ish regime.
  cfg.randomize_queues = false;
  data::Dataset ds(data::generate_dataset(topo::ring(5), 10, cfg, 31));
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.iterations = 2;
  core::Model m(core::ModelKind::kExtended, mc);
  core::TrainConfig tc;
  tc.epochs = 15;
  tc.batch_samples = 2;
  tc.lr = 3e-3;
  tc.verbose = false;
  core::Trainer(m, tc).fit(ds, sc);

  const nn::NoGradGuard guard;
  data::Sample heavy = ds[0];
  for (auto& p : heavy.paths) p.traffic_bps *= 3.0;
  const nn::Var a = m.forward(ds[0], sc);
  const nn::Var b = m.forward(heavy, sc);
  double mean_a = 0.0, mean_b = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    mean_a += sc.target_to_delay(a.value()(i, 0));
    mean_b += sc.target_to_delay(b.value()(i, 0));
  }
  EXPECT_GT(mean_b, mean_a);  // more load -> more predicted delay
}

TEST(DatasetOrderProperty, ShuffleDoesNotChangeFittedScaler) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 5'000;
  data::Dataset ds(data::generate_dataset(topo::ring(4), 6, cfg, 17));
  const data::Scaler before = data::Scaler::fit(ds.samples());
  util::RngStream rng(5);
  ds.shuffle(rng);
  const data::Scaler after = data::Scaler::fit(ds.samples());
  EXPECT_DOUBLE_EQ(before.traffic_moments().mean,
                   after.traffic_moments().mean);
  EXPECT_DOUBLE_EQ(before.log_delay_moments().stddev,
                   after.log_delay_moments().stddev);
}

}  // namespace
