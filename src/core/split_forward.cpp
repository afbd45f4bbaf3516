// The split forward: one untaped Model::forward over idle pool lanes
// (DESIGN.md §T).
//
// A path's sequence touches only its own state row, so the path RNN
// splits into contiguous path-row ranges ("chunks"): a lane steps every
// position for its chunk's rows, with no barrier between positions.
// Position p's rows are ascending (build_plan walks paths in order), so
// a chunk's share of a position is a sub-span found by binary search.
//
// The link and node sums need each position's new states, which later
// positions overwrite in place, so the lanes copy the summed positions'
// states into a capture arena as they step.  After a barrier, each
// entity's sum is formed from that arena in the serial forward's order:
// per summed position a zero row plus the entity's rows, ascending (the
// serial segment_sum), added onto the running sum (accumulate), zero
// rows of positions the entity is absent from included.  The entity
// updates and the next iteration's input projections then run per
// entity chunk, and a second barrier ends the iteration.  The last
// iteration runs the readout on each chunk's rows as soon as the chunk's
// lane has stepped them.  Every value is therefore computed by the same
// operations, in the same order, as in the serial forward, whichever
// lane runs it: the bits do not depend on the lane count.
//
// The job is one try_parallel_for of pool.size() lanes.  Each phase's
// chunks are claimed from a shared counter, and a lane waits at a
// barrier only for chunks that running lanes already hold, so a lane
// that never starts holds nothing up: the calling lane alone finishes
// the forward, and a pool busy with another job runs it inline.  A
// waiting lane spins briefly, then blocks until a phase completes.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/model.hpp"
#include "core/plan.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/pool.hpp"
#include "util/thread_pool.hpp"

namespace rnx::core {

namespace {

using nn::Index;
using nn::Tensor;

/// About this many path chunks per lane, so a lane that wakes late still
/// finds work, with at least kMinChunkRows rows each.
constexpr std::size_t kChunksPerLane = 4;
constexpr std::size_t kMinChunkRows = 16;
/// Entity rows (links or nodes) per chunk of an entity phase.
constexpr std::size_t kEntityChunkRows = 32;
/// Barrier polls before a waiting lane blocks.
constexpr int kSpinPolls = 1000;
constexpr std::size_t kNotCaptured = std::numeric_limits<std::size_t>::max();

/// One entity kind's message sums as index lists: entity e sums rows
/// rows[start[e] .. start[e+1]) of its source, ascending, in groups:
/// group j holds the rows below ends[j] (one summed position's capture
/// rows, or, for the paper's node rule, every incidence in one group).
struct SumIndex {
  std::vector<std::size_t> ends;
  std::vector<std::uint32_t> start;
  std::vector<Index> rows;

  /// The serial forward forms this sum at all (it skips an entity update
  /// whose messages never arrive).
  [[nodiscard]] bool defined() const noexcept { return !ends.empty(); }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return ends.size() * sizeof(std::size_t) +
           start.size() * sizeof(std::uint32_t) + rows.size() * sizeof(Index);
  }

  /// start/rows from (entity, row) pairs in ascending row order.
  template <class Each>
  void build(std::size_t entities, Each&& each) {
    start.assign(entities + 1, 0);
    each([&](Index e, Index) {
      if (e >= entities)
        throw std::out_of_range("split forward: element id out of range");
      ++start[e + 1];
    });
    for (std::size_t e = 0; e < entities; ++e) start[e + 1] += start[e];
    rows.resize(start[entities]);
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    each([&](Index e, Index row) { rows[cursor[e]++] = row; });
  }

  /// Entity e's sum into out (hid wide); m is hid doubles of scratch.
  void sum(std::size_t e, const Tensor& src, double* out, double* m,
           std::size_t hid) const {
    const Index* r = rows.data() + start[e];
    const Index* const end = rows.data() + start[e + 1];
    for (std::size_t j = 0; j < ends.size(); ++j) {
      std::fill(m, m + hid, 0.0);
      for (; r != end && *r < ends[j]; ++r) {
        const double* s = src.row(*r).data();
        for (std::size_t c = 0; c < hid; ++c) m[c] += s[c];
      }
      if (j == 0)
        std::copy(m, m + hid, out);
      else
        for (std::size_t c = 0; c < hid; ++c) out[c] += m[c];
    }
  }
};

/// What a split forward allocates beyond the serial forward: where each
/// summed position's states go in the capture arena, and the sums' index
/// lists.  Empty for T = 1, whose only iteration sums nothing.
struct SplitLayout {
  std::vector<std::size_t> capture_off;  ///< per position, or kNotCaptured
  std::size_t capture_rows = 0;
  SumIndex links, nodes;

  SplitLayout(const MpPlan& plan, const ModelConfig& cfg, bool use_nodes) {
    if (cfg.iterations < 2) return;
    const bool positional_nodes =
        use_nodes && cfg.node_rule == NodeUpdateRule::kPositionalMessages;
    capture_off.assign(plan.num_positions(), kNotCaptured);
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      const PlanPosition pos = plan.position(p);
      if (pos.is_node && !positional_nodes) continue;
      capture_off[p] = capture_rows;
      capture_rows += pos.path_rows.size();
      (pos.is_node ? nodes : links).ends.push_back(capture_rows);
    }
    const auto positions = [&](bool is_node) {
      return [&plan, this, is_node](auto&& add) {
        for (std::size_t p = 0; p < plan.num_positions(); ++p) {
          const PlanPosition pos = plan.position(p);
          if (pos.is_node != is_node || capture_off[p] == kNotCaptured)
            continue;
          for (std::size_t i = 0; i < pos.elem_ids.size(); ++i)
            add(pos.elem_ids[i], static_cast<Index>(capture_off[p] + i));
        }
      };
    };
    links.build(plan.num_links, positions(false));
    if (positional_nodes) {
      nodes.build(plan.num_nodes, positions(true));
    } else if (use_nodes) {
      // The paper's rule: one segment_sum of the final path states.
      nodes.ends.push_back(kNotCaptured);
      nodes.build(plan.num_nodes, [&plan](auto&& add) {
        for (std::size_t i = 0; i < plan.inc_node_ids.size(); ++i)
          add(plan.inc_node_ids[i], plan.inc_path_rows[i]);
      });
    }
  }

  [[nodiscard]] std::size_t bytes(std::size_t hid) const noexcept {
    return capture_rows * hid * sizeof(double) +
           capture_off.size() * sizeof(std::size_t) + links.bytes() +
           nodes.bytes();
  }
};

/// One phase of the job: chunks are claimed from `next`; `done` counts
/// the finished ones.  One cache line each, so lanes polling one phase
/// do not contend with claims on the next.
struct alignas(64) Phase {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::size_t chunks = 0;
};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// What lanes wait on at a barrier.  `events` changes whenever a phase
/// completes or a lane fails, so a lane blocked on it wakes for both.
struct Progress {
  std::atomic<bool> failed{false};
  std::atomic<std::uint32_t> events{0};

  void signal() noexcept {
    events.fetch_add(1, std::memory_order_release);
    events.notify_all();
  }

  /// Wait until every chunk of `phase` is done; false when a lane failed
  /// (its exception ends the job).  Spins briefly, then blocks, so a long
  /// wait does not hold a CPU.
  bool await(const Phase& phase) const {
    for (int polls = 0;; ++polls) {
      const std::uint32_t seen = events.load(std::memory_order_acquire);
      if (phase.done.load(std::memory_order_acquire) >= phase.chunks)
        return true;
      if (failed.load(std::memory_order_relaxed)) return false;
      if (polls < kSpinPolls)
        cpu_relax();
      else
        events.wait(seen, std::memory_order_acquire);
    }
  }
};

/// Copy rows [a, b) of src into a pooled tensor.
Tensor copy_rows(const Tensor& src, std::size_t a, std::size_t b) {
  Tensor out = nn::TensorPool::acquire_uninit(b - a, src.cols());
  const auto from = src.flat().subspan(a * src.cols(), (b - a) * src.cols());
  std::copy(from.begin(), from.end(), out.flat().begin());
  return out;
}

/// Write t's rows over rows [a, a + t.rows()) of dst.
void put_rows(Tensor& dst, std::size_t a, const Tensor& t) {
  const auto from = t.flat();
  std::copy(from.begin(), from.end(), dst.flat().begin() + a * dst.cols());
}

// Checks of inputs the serial forward reads after iteration 0's path
// RNN, with the exception types and messages its gather_rows and
// segment_sum throw.
void check_incidences(const MpPlan& plan) {
  for (const Index r : plan.inc_path_rows)
    if (r >= plan.num_paths)
      throw std::out_of_range("gather_rows: index out of range");
  for (const Index n : plan.inc_node_ids)
    if (n >= plan.num_nodes)
      throw std::out_of_range("segment_sum: segment id out of range");
}

}  // namespace

std::size_t Model::split_arena_bytes(const data::Sample& sample) const {
  if (!cfg_.fused_gru || cfg_.iterations == 0) return 0;
  std::shared_ptr<const MpPlan> holder;
  const MpPlan& plan = plan_for(sample, holder);
  return SplitLayout(plan, cfg_, rnn_node_.has_value()).bytes(cfg_.state_dim);
}

nn::Var Model::forward_split(const MpPlan& plan, nn::Var h_path,
                             nn::Var h_link, nn::Var h_node,
                             const nn::Var& link_inv_count,
                             const nn::Var& node_inv_count,
                             util::ThreadPool& pool) const {
  const std::size_t hid = cfg_.state_dim, iters = cfg_.iterations;
  const std::size_t paths = h_path.rows();
  // Every check the serial forward makes, in its order, before any lane
  // starts: a lane never throws mid-phase on a bad input.
  check_positions(plan, h_path, h_link, h_node);
  const bool paper_nodes =
      rnn_node_ && cfg_.node_rule == NodeUpdateRule::kSumPathStates;
  if (iters > 1 && paper_nodes) check_incidences(plan);

  const SplitLayout layout(plan, cfg_, rnn_node_.has_value());
  Tensor& hp = h_path.mutable_value();
  Tensor& hl = h_link.mutable_value();
  Tensor* const hn = h_node.defined() ? &h_node.mutable_value() : nullptr;
  // The sources' input projections, kept current row by row as the
  // entity updates replace their states; none without the step kernel.
  Tensor ul = nn::TensorPool::acquire_uninit(hl.rows(), 3 * hid);
  Tensor un = nn::TensorPool::acquire_uninit(hn ? hn->rows() : 0, 3 * hid);
  const bool projected =
      rnn_path_.project_rows(ul.flat().data(), hl.flat().data(), nullptr,
                             hl.rows()) &&
      (hn == nullptr || rnn_path_.project_rows(un.flat().data(),
                                               hn->flat().data(), nullptr,
                                               hn->rows()));
  Tensor capture = nn::TensorPool::acquire_uninit(layout.capture_rows, hid);
  Tensor out(paths, 1);

  const std::size_t lanes = pool.size();
  const auto chunks_of = [](std::size_t rows, std::size_t per) {
    return (rows + per - 1) / per;
  };
  const std::size_t chunk_rows =
      std::max(kMinChunkRows, chunks_of(paths, kChunksPerLane * lanes));
  const std::size_t link_chunks =
      layout.links.defined() ? chunks_of(hl.rows(), kEntityChunkRows) : 0;
  const std::size_t node_chunks =
      hn != nullptr && layout.nodes.defined()
          ? chunks_of(hn->rows(), kEntityChunkRows)
          : 0;
  // Iteration t runs phase 2t (the path RNN; the readout in the last
  // iteration) and, but for the last, phase 2t + 1 (the entities).
  std::vector<Phase> phases(2 * iters - 1);
  for (std::size_t ph = 0; ph < phases.size(); ++ph)
    phases[ph].chunks = ph % 2 == 0 ? chunks_of(paths, chunk_rows)
                                    : link_chunks + node_chunks;

  const auto run_paths = [&](std::size_t chunk, bool last) {
    const std::size_t r0 = chunk * chunk_rows;
    const std::size_t r1 = std::min(paths, r0 + chunk_rows);
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      const PlanPosition pos = plan.position(p);
      const auto rows = pos.path_rows;
      const auto lo = static_cast<std::size_t>(
          std::lower_bound(rows.begin(), rows.end(), r0) - rows.begin());
      const auto hi = static_cast<std::size_t>(
          std::lower_bound(rows.begin() + lo, rows.end(), r1) - rows.begin());
      if (lo == hi) continue;
      const Tensor& src = pos.is_node ? *hn : hl;
      const Tensor* u = projected ? (pos.is_node ? &un : &ul) : nullptr;
      rnn_path_.step_rows(src, u, pos.elem_ids.subspan(lo, hi - lo), hp,
                          rows.subspan(lo, hi - lo));
      if (last || layout.capture_off[p] == kNotCaptured) continue;
      for (std::size_t i = lo; i < hi; ++i) {
        const auto from = hp.row(rows[i]);
        std::copy(from.begin(), from.end(),
                  capture.row(layout.capture_off[p] + i).begin());
      }
    }
    if (!last) return;
    const nn::Var y = readout_.forward(nn::Var(copy_rows(hp, r0, r1)));
    put_rows(out, r0, y.value());
  };

  // Rows [a, b) of one entity kind: sums, mean normalizer, RNN step in
  // place, and the next iteration's input projection of the new states.
  const auto run_entities = [&](const SumIndex& sums, const Tensor& src,
                                const nn::GRUCell& rnn, Tensor& h, Tensor& u,
                                const nn::Var& inv_count, std::size_t a,
                                std::size_t b) {
    const auto& backend = nn::kernels::active();
    Tensor msg = nn::TensorPool::acquire_uninit(b - a, hid);
    std::vector<double> scratch(hid);
    for (std::size_t e = a; e < b; ++e) {
      double* row = msg.row(e - a).data();
      sums.sum(e, src, row, scratch.data(), hid);
      if (inv_count.defined())
        backend.vmul(row, row, inv_count.value().row(e).data(), hid);
    }
    const nn::Var y =
        rnn.step(nn::Var(std::move(msg)), nn::Var(copy_rows(h, a, b)));
    put_rows(h, a, y.value());
    if (projected)
      rnn_path_.project_rows(u.row(a).data(), h.row(a).data(), nullptr, b - a);
  };

  const auto run = [&](std::size_t ph, std::size_t chunk) {
    if (ph % 2 == 0) {
      run_paths(chunk, ph + 1 == phases.size());
    } else if (chunk < link_chunks) {
      const std::size_t a = chunk * kEntityChunkRows;
      run_entities(layout.links, capture, rnn_link_, hl, ul, link_inv_count, a,
                   std::min(hl.rows(), a + kEntityChunkRows));
    } else {
      const std::size_t a = (chunk - link_chunks) * kEntityChunkRows;
      run_entities(layout.nodes, paper_nodes ? hp : capture, *rnn_node_, *hn,
                   un, node_inv_count, a,
                   std::min(hn->rows(), a + kEntityChunkRows));
    }
  };

  const nn::kernels::Backend& backend = nn::kernels::active();
  Progress progress;
  const auto lane = [&](std::size_t) {
    // Grad mode and the backend override are per thread.
    const nn::NoGradGuard no_grad;
    const nn::kernels::ScopedBackendOverride same_backend(backend);
    for (std::size_t ph = 0; ph < phases.size(); ++ph) {
      Phase& phase = phases[ph];
      for (std::size_t c;
           (c = phase.next.fetch_add(1, std::memory_order_relaxed)) <
           phase.chunks;) {
        try {
          run(ph, c);
        } catch (...) {
          progress.failed.store(true, std::memory_order_relaxed);
          progress.signal();
          throw;
        }
        if (phase.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            phase.chunks)
          progress.signal();
      }
      if (ph + 1 < phases.size() && !progress.await(phase)) return;
    }
  };
  if (!pool.try_parallel_for(lanes, lane)) lane(0);

  for (Tensor* t : {&ul, &un, &capture}) nn::TensorPool::release(std::move(*t));
  return nn::Var(std::move(out));
}

}  // namespace rnx::core
