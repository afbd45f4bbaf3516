// Unit tests of the benchmark's measurement code: the percentile rule,
// span self time, operation accounting and the report document.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, NearestRankIsAnObservedSample) {
  const std::vector<double> xs = {15, 20, 35, 40, 50};
  EXPECT_EQ(nearest_rank(xs, 5), 15);
  EXPECT_EQ(nearest_rank(xs, 30), 20);   // ceil(1.5) = 2nd
  EXPECT_EQ(nearest_rank(xs, 40), 20);   // ceil(2.0) = 2nd
  EXPECT_EQ(nearest_rank(xs, 50), 35);
  EXPECT_EQ(nearest_rank(xs, 100), 50);
  EXPECT_EQ(nearest_rank(xs, 0), 15);    // clamped to the 1st
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, NearestRankOfUnsortedInput) {
  std::vector<double> xs = one_to(1000);
  std::reverse(xs.begin(), xs.end());
  EXPECT_EQ(nearest_rank(xs, 99), 990);
  EXPECT_EQ(nearest_rank(xs, 99.9), 999);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW((void)nearest_rank({}, 50), std::invalid_argument);
  EXPECT_THROW((void)nearest_rank({1.0}, 101), std::invalid_argument);
  EXPECT_THROW((void)nearest_rank({1.0}, -1), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondTheRank) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(0, 50), 0u);
}

TEST(Percentile, HighestSupportedKeepsTenBeyond) {
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(9999), 99.5);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 98.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(200, 2), 99.0);
}

TEST(Tracer, SelfTimeSubtractsNestedChildren) {
  Tracer t;
  const auto root = static_cast<std::int64_t>(t.add("root", 0, 100));
  const auto a = static_cast<std::int64_t>(t.add("a", 10, 40, root));
  t.add("a1", 15, 25, a);
  t.add("b", 50, 70, root);
  const std::vector<std::int64_t> self = t.self_ns();
  EXPECT_EQ(self[0], 100 - 30 - 20);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
}

TEST(Tracer, OverlappingAndProtrudingChildrenCountOnce) {
  Tracer t;
  const auto root = static_cast<std::int64_t>(t.add("root", 0, 100));
  t.add("x", 10, 50, root);
  t.add("x", 30, 60, root);   // overlaps the first: union is [10, 60)
  t.add("y", 90, 130, root);  // sticks out: only [90, 100) is inside
  EXPECT_EQ(t.self_ns()[0], 100 - 50 - 10);
  EXPECT_EQ(t.self_ns_by_name().at("x"), 40 + 30);
  EXPECT_EQ(t.total_ns_by_name().at("root"), 100);
}

TEST(Tracer, ScopesNestUnderTheInnermostOpenSpan) {
  Tracer t;
  {
    const Tracer::Scope outer(t, "outer", 7);
    const Tracer::Scope inner(t, "inner", 7);
  }
  const Tracer::Scope next(t, "next");
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].request, 7u);
  EXPECT_EQ(t.spans()[2].parent, -1);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[1].end_ns);
  EXPECT_THROW(t.close(0), std::logic_error);
}

TEST(OpsAccount, FailedFractionCountsAgainstAttempts) {
  OpsAccount ops;
  EXPECT_EQ(ops.failed_frac(), 0.0);
  ops.attempt(90);
  ops.attempt();
  ops.fail("serve: shed", 2);
  ops.fail("serve: failed");
  ops.fail("serve: shed");
  EXPECT_EQ(ops.attempted(), 91u);
  EXPECT_EQ(ops.failed(), 4u);
  EXPECT_DOUBLE_EQ(ops.failed_frac(), 4.0 / 91.0);
  EXPECT_EQ(ops.reasons().at("serve: shed"), 3u);
  EXPECT_EQ(ops.reasons().at("serve: failed"), 1u);
}

TEST(Report, JsonCarriesMetricsUnitsAndAccounting) {
  Report r;
  r.metric("latency_p50_ms", 1.25, "ms");
  r.metric("nan_metric", std::numeric_limits<double>::quiet_NaN(), "s");
  r.note("cpu_model", "a \"quoted\" cpu");
  r.note("nproc", 4);
  OpsAccount ops;
  ops.attempt(4);
  ops.fail("x");
  EXPECT_EQ(r.to_json(false, ops),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, "
            "\"ops_failed_frac\": 0.25, \"failure_reasons\": {\"x\": 1}, "
            "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"nan_metric\": {\"value\": null, \"unit\": \"s\"}}, "
            "\"notes\": {\"cpu_model\": \"a \\\"quoted\\\" cpu\", \"nproc\": "
            "4}}");
}

}  // namespace
}  // namespace perfbench
