// The split forward: Model::forward with a pool against the serial
// forward, bit for bit.
//
// A lone forward may borrow a pool's idle lanes (DESIGN.md §T).  Its
// predictions must equal the serial forward's for any lane count, both
// model kinds, both node rules, link mean aggregation on and off, a
// kernel width and a matmul-route width, and both backends.  A bad
// sample must throw what the serial forward throws, before any lane
// starts, and leave the pool ready for the next forward.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "core/model.hpp"
#include "core/plan.hpp"
#include "data/generator.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "sim/scenario.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rnx;

data::Sample make_sample(const topo::Topology& t, std::uint64_t seed) {
  util::set_log_level(util::LogLevel::kWarn);
  data::GeneratorConfig gen;
  gen.target_packets = 3'000;
  util::RngStream rng(seed);
  return data::generate_sample(t, gen, rng);
}

/// NSFNET, GEANT2 and BA-100.
const std::vector<data::Sample>& samples() {
  static const std::vector<data::Sample> all = [] {
    util::RngStream topo_rng(100);
    return std::vector<data::Sample>{
        make_sample(topo::nsfnet(), 3), make_sample(topo::geant2(), 5),
        make_sample(topo::barabasi_albert(100, 2, topo_rng), 7)};
  }();
  return all;
}

const data::Scaler& scaler() {
  static const data::Scaler sc = data::Scaler::fit(samples(), 0);
  return sc;
}

/// Pools of 2, 3 and 4 lanes, shared by the tests.
util::ThreadPool& pool(std::size_t lanes) {
  static std::vector<std::unique_ptr<util::ThreadPool>> pools = [] {
    std::vector<std::unique_ptr<util::ThreadPool>> out;
    for (std::size_t n = 0; n <= 4; ++n)
      out.push_back(std::make_unique<util::ThreadPool>(n));
    return out;
  }();
  return *pools.at(lanes);
}

struct Variant {
  const char* name;
  core::ModelKind kind;
  core::NodeUpdateRule rule;
  bool link_mean;
  std::size_t state_dim;
  std::size_t iterations;
};

std::vector<Variant> variants() {
  using core::ModelKind;
  using core::NodeUpdateRule;
  constexpr auto kPaper = NodeUpdateRule::kSumPathStates;
  constexpr auto kPositional = NodeUpdateRule::kPositionalMessages;
  return {
      {"orig", ModelKind::kOriginal, kPaper, false, 8, 3},
      {"orig link-mean", ModelKind::kOriginal, kPaper, true, 8, 3},
      {"ext paper", ModelKind::kExtended, kPaper, false, 8, 3},
      {"ext paper link-mean", ModelKind::kExtended, kPaper, true, 8, 3},
      {"ext positional", ModelKind::kExtended, kPositional, false, 8, 3},
      {"ext positional link-mean", ModelKind::kExtended, kPositional, true, 8,
       3},
      // A width without the step kernel runs the matmul route.
      {"ext paper H=10", ModelKind::kExtended, kPaper, false, 10, 2},
      {"orig H=10 link-mean", ModelKind::kOriginal, kPaper, true, 10, 2},
      // One iteration: the readout right after the only path RNN.
      {"ext T=1", ModelKind::kExtended, kPaper, false, 8, 1},
  };
}

core::Model make_model(const Variant& v) {
  core::ModelConfig mc;
  mc.state_dim = v.state_dim;
  mc.readout_hidden = 8;
  mc.iterations = v.iterations;
  mc.init_seed = 17;
  mc.node_rule = v.rule;
  mc.link_mean_aggregation = v.link_mean;
  return core::Model(v.kind, mc);
}

std::vector<const nn::kernels::Backend*> backends() {
  std::vector<const nn::kernels::Backend*> out{&nn::kernels::scalar_backend()};
  if (const nn::kernels::Backend* simd = nn::kernels::simd_backend())
    out.push_back(simd);
  return out;
}

nn::Tensor predict(const core::Model& model, const data::Sample& s,
                   util::ThreadPool* pool = nullptr) {
  const nn::NoGradGuard guard;
  return model.forward(s, scaler(), pool).value();
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(double)) == 0;
}

TEST(SplitForward, BitwiseForAnyLaneCount) {
  for (const nn::kernels::Backend* backend : backends()) {
    const nn::kernels::ScopedBackendOverride use(*backend);
    for (const Variant& v : variants()) {
      const core::Model model = make_model(v);
      for (const data::Sample& s : samples()) {
        SCOPED_TRACE(std::string(backend->name) + " " + v.name + " paths=" +
                     std::to_string(s.paths.size()));
        const nn::Tensor serial = predict(model, s);
        for (std::size_t lanes = 1; lanes <= 4; ++lanes)
          EXPECT_TRUE(same_bits(predict(model, s, &pool(lanes)), serial))
              << lanes << " lanes";
      }
    }
  }
}

// The arena is the captured link-position states plus index lists: at
// least one state row per link hop once there are messages to sum.
TEST(SplitForward, ArenaBytesCoverTheCapturedStates) {
  const data::Sample& s = samples()[1];
  std::size_t hops = 0;
  for (const data::PathRecord& p : s.paths) hops += p.links.size();
  for (const std::size_t iters : {1u, 2u, 4u}) {
    Variant v{"orig", core::ModelKind::kOriginal,
              core::NodeUpdateRule::kSumPathStates, false, 12, iters};
    const std::size_t bytes = make_model(v).split_arena_bytes(s);
    if (iters == 1) {
      EXPECT_EQ(bytes, 0u);  // one iteration sums no messages
      continue;
    }
    EXPECT_GE(bytes, hops * 12 * sizeof(double));
    EXPECT_LT(bytes, hops * 12 * sizeof(double) * 2);
  }
}

// A taped forward ignores the pool: the trainer's path does not change.
TEST(SplitForward, TapedForwardIgnoresThePool) {
  const core::Model model = make_model(variants()[2]);
  const data::Sample& s = samples()[0];
  const nn::Var taped = model.forward(s, scaler(), &pool(2));
  EXPECT_TRUE(taped.requires_grad());
  EXPECT_TRUE(same_bits(taped.value(), predict(model, s)));
}

// A pool of one lane and a pool held by another job both run the
// forward inline, with the serial bits.
TEST(SplitForward, OneLaneAndBusyPoolsRunInline) {
  const core::Model model = make_model(variants()[2]);
  const data::Sample& s = samples()[1];
  const nn::Tensor serial = predict(model, s);
  EXPECT_TRUE(same_bits(predict(model, s, &pool(1)), serial));

  util::ThreadPool busy(2);
  std::atomic<bool> held{false}, release{false};
  std::thread holder([&] {
    busy.parallel_for(2, [&](std::size_t) {
      held = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!held) std::this_thread::yield();
  const std::uint64_t jobs = busy.jobs();
  EXPECT_TRUE(same_bits(predict(model, s, &busy), serial));
  EXPECT_EQ(busy.jobs(), jobs);  // the forward took no job
  release = true;
  holder.join();
  EXPECT_TRUE(same_bits(predict(model, s, &busy), serial));
  EXPECT_EQ(busy.jobs(), jobs + 1);
}

// Two threads splitting forwards on one pool: one takes it, the other
// runs inline; both keep the serial bits.
TEST(SplitForward, ConcurrentCallersShareOnePool) {
  const core::Model model = make_model(variants()[4]);
  const data::Sample& s = samples()[1];
  const nn::Tensor serial = predict(model, s);
  std::atomic<int> mismatches{0};
  const auto caller = [&] {
    for (int i = 0; i < 8; ++i)
      if (!same_bits(predict(model, s, &pool(2)), serial)) ++mismatches;
  };
  std::thread other(caller);
  caller();
  other.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// What fn throws: its dynamic type and message ("" for none).
struct Thrown {
  std::string type, what;
};

Thrown thrown_by(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {};
}

struct Mutation {
  const char* name;
  std::function<void(data::Sample&)> apply;
};

std::vector<Mutation> mutations() {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  return {
      {"link id out of range",
       [](data::Sample& s) {
         s.paths[40].links[0] = static_cast<topo::LinkId>(s.num_links() + 3);
       }},
      {"node id out of range",
       [](data::Sample& s) {
         s.paths[7].nodes[0] = static_cast<topo::NodeId>(s.num_nodes + 2);
       }},
      {"NaN capacity", [=](data::Sample& s) { s.link_capacity_bps[5] = kNaN; }},
      {"NaN traffic", [=](data::Sample& s) { s.paths[9].traffic_bps = kNaN; }},
      {"bad traffic process",
       [](data::Sample& s) {
         s.scenario.traffic = static_cast<sim::TrafficProcess>(
             sim::kNumTrafficProcesses + 1);
       }},
      {"bad scheduler policy",
       [](data::Sample& s) {
         s.scenario.policy = static_cast<sim::SchedulerPolicy>(
             sim::kNumSchedulerPolicies + 2);
       }},
  };
}

TEST(SplitForward, BadSampleThrowsWhatTheSerialForwardThrows) {
  // Mean aggregation counts the ids before the path RNN; without it the
  // path RNN's own checks meet a bad id first.
  struct Setup {
    core::ModelKind kind;
    bool mean;
  };
  for (const Setup& setup : {Setup{core::ModelKind::kOriginal, true},
                             Setup{core::ModelKind::kOriginal, false},
                             Setup{core::ModelKind::kExtended, true},
                             Setup{core::ModelKind::kExtended, false}}) {
    core::ModelConfig mc;
    mc.state_dim = 8;
    mc.readout_hidden = 8;
    mc.iterations = 3;
    mc.init_seed = 23;
    mc.scenario_features = true;  // the forward reads the enums
    mc.link_mean_aggregation = setup.mean;
    mc.node_mean_aggregation = setup.mean;
    const core::Model model(setup.kind, mc);
    const data::Sample& good = samples()[1];
    const nn::Tensor serial = predict(model, good);
    for (const Mutation& m : mutations()) {
      SCOPED_TRACE(std::string(m.name) + " " + model.name() +
                   (setup.mean ? " mean" : " sum"));
      data::Sample bad = good;
      m.apply(bad);
      const Thrown want = thrown_by([&] { (void)predict(model, bad); });
      // The original kind reads no node ids: then the bits must agree.
      EXPECT_TRUE(!want.what.empty() ||
                  (m.name == std::string("node id out of range") &&
                   setup.kind == core::ModelKind::kOriginal));
      for (std::size_t lanes = 2; lanes <= 4; ++lanes) {
        const Thrown got =
            thrown_by([&] { (void)predict(model, bad, &pool(lanes)); });
        EXPECT_EQ(got.type, want.type);
        EXPECT_EQ(got.what, want.what);
        if (want.what.empty()) {
          EXPECT_TRUE(same_bits(predict(model, bad, &pool(lanes)),
                                predict(model, bad)));
        }
        // No lane is left behind: the pool runs the next forward.
        EXPECT_TRUE(same_bits(predict(model, good, &pool(lanes)), serial));
      }
    }
  }
}

}  // namespace
