// core::PlanCache: hit/miss accounting, content parity with build_plan,
// invalidation, and concurrent access.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/plan_cache.hpp"
#include "core/model.hpp"
#include "data/normalize.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rnx;
using core::MpPlan;
using core::PlanCache;

data::Sample line3_sample() {
  data::Sample s;
  s.topo_name = "line3";
  s.num_nodes = 3;
  s.links = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  s.link_capacity_bps = {1e6, 1e6, 1e6, 1e6};
  s.queue_pkts = {32, 1, 32};
  data::PathRecord p0;
  p0.src = 0;
  p0.dst = 2;
  p0.nodes = {0, 1, 2};
  p0.links = {0, 2};
  p0.traffic_bps = 1e5;
  p0.mean_delay_s = 1e-3;
  p0.delivered = 100;
  data::PathRecord p1;
  p1.src = 1;
  p1.dst = 2;
  p1.nodes = {1, 2};
  p1.links = {2};
  p1.traffic_bps = 2e5;
  p1.mean_delay_s = 5e-4;
  p1.delivered = 100;
  s.paths = {p0, p1};
  s.validate();
  return s;
}

void expect_plans_equal(const MpPlan& a, const MpPlan& b) {
  EXPECT_EQ(a.num_paths, b.num_paths);
  EXPECT_EQ(a.num_links, b.num_links);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  ASSERT_EQ(a.num_positions(), b.num_positions());
  for (std::size_t i = 0; i < a.num_positions(); ++i) {
    const core::PlanPosition pa = a.position(i), pb = b.position(i);
    EXPECT_EQ(pa.is_node, pb.is_node);
    EXPECT_TRUE(std::equal(pa.path_rows.begin(), pa.path_rows.end(),
                           pb.path_rows.begin(), pb.path_rows.end()));
    EXPECT_TRUE(std::equal(pa.elem_ids.begin(), pa.elem_ids.end(),
                           pb.elem_ids.begin(), pb.elem_ids.end()));
  }
  EXPECT_EQ(a.inc_path_rows, b.inc_path_rows);
  EXPECT_EQ(a.inc_node_ids, b.inc_node_ids);
}

TEST(PlanCache, MissThenHitReturnsSamePlan) {
  const data::Sample s = line3_sample();
  PlanCache cache;
  const auto first = cache.get(s, /*use_nodes=*/false);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  const auto second = cache.get(s, /*use_nodes=*/false);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first.get(), second.get());  // same object, not a rebuild
  expect_plans_equal(*first, core::build_plan(s, false));
}

TEST(PlanCache, UseNodesVariantsAreDistinctEntries) {
  const data::Sample s = line3_sample();
  PlanCache cache;
  const auto plain = cache.get(s, false);
  const auto ext = cache.get(s, true);
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(plain.get(), ext.get());
  expect_plans_equal(*ext, core::build_plan(s, true));
}

TEST(PlanCache, InvalidateDropsBothVariants) {
  const data::Sample s = line3_sample();
  const data::Sample other = line3_sample();
  PlanCache cache;
  (void)cache.get(s, false);
  (void)cache.get(s, true);
  (void)cache.get(other, false);
  EXPECT_EQ(cache.stats().size, 3u);
  cache.invalidate(s);
  EXPECT_EQ(cache.stats().size, 1u);
  // Re-fetch is a rebuild (miss), not a stale hit.
  (void)cache.get(s, false);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(PlanCache, SharedPlanSurvivesInvalidation) {
  const data::Sample s = line3_sample();
  PlanCache cache;
  const auto plan = cache.get(s, true);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  // The caller's shared_ptr keeps the plan alive.
  EXPECT_EQ(plan->num_paths, 2u);
}

TEST(PlanCache, DistinctSamplesGetDistinctEntries) {
  const data::Sample a = line3_sample();
  const data::Sample b = line3_sample();  // equal content, distinct identity
  PlanCache cache;
  (void)cache.get(a, false);
  (void)cache.get(b, false);
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCache, ConcurrentGetsYieldOnePlanPerKey) {
  const data::Sample s = line3_sample();
  PlanCache cache;
  util::ThreadPool pool(4);
  std::vector<std::shared_ptr<const MpPlan>> got(64);
  pool.parallel_for(64, [&](std::size_t i) { got[i] = cache.get(s, true); });
  EXPECT_EQ(cache.stats().size, 1u);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    expect_plans_equal(*p, *got[0]);
  }
}

// The model-level contract: a cached forward pass computes exactly what
// an uncached one does, and training-loop-shaped reuse stops rebuilding.
TEST(PlanCache, ModelForwardIdenticalWithAndWithoutCache) {
  const data::Sample s = line3_sample();
  const data::Scaler scaler = data::Scaler::fit({&s, 1});
  core::ModelConfig mc;
  mc.state_dim = 6;
  mc.readout_hidden = 8;
  mc.iterations = 2;
  core::Model model(core::ModelKind::kExtended, mc);

  const nn::NoGradGuard guard;
  const nn::Tensor plain = model.forward(s, scaler).value();
  PlanCache cache;
  model.set_plan_cache(&cache);
  const nn::Tensor cached1 = model.forward(s, scaler).value();
  const nn::Tensor cached2 = model.forward(s, scaler).value();
  model.set_plan_cache(nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain.flat()[i], cached1.flat()[i]);
    EXPECT_EQ(cached1.flat()[i], cached2.flat()[i]);
  }
}

TEST(PlanCache, StatsConservationLaws) {
  const data::Sample a = line3_sample();
  const data::Sample b = line3_sample();
  PlanCache cache;
  for (int round = 0; round < 5; ++round) {
    (void)cache.get(a, false);
    (void)cache.get(b, true);
  }
  const PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.lookups, 10u);
  EXPECT_EQ(st.hits + st.misses, st.lookups);
}

}  // namespace
