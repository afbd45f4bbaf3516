// sim::EventQueue against a std::priority_queue reference ordered by
// (time, push index): the same pop sequence, ties included, whatever mix
// of replace-top pushes, plain pushes and settle-only steps drives it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using rnx::sim::EventQueue;
using rnx::sim::QueuedEvent;

struct Ref {
  double time;
  std::uint64_t seq;
  std::uint32_t kind;
  std::uint32_t id;
  bool operator>(const Ref& o) const noexcept {
    return std::tie(time, seq) > std::tie(o.time, o.seq);
  }
};

void run_against_reference(std::uint32_t max_id, std::uint64_t seed) {
  SCOPED_TRACE("max_id " + std::to_string(max_id));
  rnx::util::RngStream rng(seed);
  EventQueue q(max_id);
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
  std::uint64_t seq = 0;
  auto push = [&](double t) {
    const auto kind = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    const auto id = static_cast<std::uint32_t>(
        max_id - static_cast<std::uint32_t>(rng.uniform_int(
                     0, std::min<std::int64_t>(max_id, 1000))));
    q.push(t, kind, id);
    ref.push(Ref{t, seq++, kind, id});
  };
  // Times from a coarse grid, so many events tie and only seq orders them.
  auto draw_time = [&](double now) {
    return now + 0.25 * static_cast<double>(rng.uniform_int(0, 8));
  };

  for (int i = 0; i < 64; ++i) push(draw_time(0.0));
  for (int step = 0; step < 20'000 && !ref.empty(); ++step) {
    const QueuedEvent got = q.take();
    const Ref want = ref.top();
    ref.pop();
    ASSERT_EQ(got.time, want.time) << "step " << step;
    ASSERT_EQ(got.kind, want.kind) << "step " << step;
    ASSERT_EQ(got.id, want.id) << "step " << step;
    // 0, 1 or 2 successors: settle-only, replace-top, replace-top + push.
    // Growth is capped so the run also drains the heap at the end.
    const auto successors =
        step < 15'000 ? rng.uniform_int(0, 2) : rng.uniform_int(0, 1);
    for (std::int64_t k = 0; k < successors; ++k) push(draw_time(got.time));
    q.settle();
  }
  while (!ref.empty()) {
    const QueuedEvent got = q.take();
    ASSERT_EQ(got.time, ref.top().time);
    ASSERT_EQ(got.id, ref.top().id);
    ref.pop();
    q.settle();
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MatchesReferenceOrderWithTiesAndReplaceTop) {
  run_against_reference(0, 1);
  run_against_reference(5, 2);
  run_against_reference(70'000, 3);
  run_against_reference(std::numeric_limits<std::uint32_t>::max(), 4);
}

TEST(EventQueue, OrdersZeroSubnormalAndInfiniteTimes) {
  EventQueue q(3);
  q.push(std::numeric_limits<double>::infinity(), 0, 0);
  q.push(1.0, 1, 1);
  q.push(std::numeric_limits<double>::denorm_min(), 2, 2);
  q.push(0.0, 3, 3);
  q.push(0.0, 0, 1);
  std::vector<std::uint32_t> ids;
  while (!q.empty()) {
    ids.push_back(q.take().id);
    q.settle();
  }
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{3, 1, 2, 1, 0}));
}

}  // namespace
