// Message-passing plan: the per-sample index structure that lets the
// path-update RNN run position-vectorized.
//
// RouteNet's path update is an RNN over each path's element sequence.
// Rather than looping path by path, we advance *all* paths one sequence
// position per step: the active paths' hidden rows take one GRU step on
// the position's element states, read by index (nn::GruSweep).  The
// plan precomputes, for every position, which paths are active
// and which element (link — or node, in the extended architecture) each
// one consumes, plus the aggregation index sets for the link and node
// updates.
//
// Layout (DESIGN.md §G): the per-position index sets live in one compact
// arena — two flat nn::Index buffers (active path rows, element ids)
// sliced by a shared offset table — instead of one pair of
// std::vector allocations per position.  Total footprint is
// O(sum of path lengths), never O(paths x positions), and bytes() is the
// exact resident size the plan cache budgets against.  positions are
// consumed as spans (PlanPosition); tests/core_plan_test.cpp pins the
// arena bitwise against build_plan_reference's per-position vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "data/sample.hpp"
#include "nn/ops.hpp"

namespace rnx::core {

/// Read-only view of one sequence position of the batched path RNN —
/// spans into the owning MpPlan's arena, valid as long as the plan lives.
struct PlanPosition {
  bool is_node = false;                  ///< element kind at this position
  std::span<const nn::Index> path_rows;  ///< active path-state rows
  std::span<const nn::Index> elem_ids;   ///< link or node id, per active path
};

class MpPlan {
 public:
  std::size_t num_paths = 0;
  std::size_t num_links = 0;
  std::size_t num_nodes = 0;
  /// (path, node) incidences for the paper's node-update rule: the path
  /// state of inc_path_rows[i] is summed into node inc_node_ids[i].
  /// Already flat — O(sum of path lengths) like the arena.
  std::vector<nn::Index> inc_path_rows;
  std::vector<nn::Index> inc_node_ids;

  /// Element sequence length.  Original RouteNet: position t holds the
  /// t-th link of every path still active.  Extended (interleaved): node,
  /// link, node, link, ... starting at the source node (the paper's
  /// interleaving), covering every node whose output queue the path uses.
  [[nodiscard]] std::size_t num_positions() const noexcept {
    return offsets_.size() - 1;
  }
  [[nodiscard]] PlanPosition position(std::size_t pos) const noexcept {
    const std::size_t lo = offsets_[pos], hi = offsets_[pos + 1];
    return PlanPosition{
        interleaved_ && pos % 2 == 0,
        std::span<const nn::Index>(rows_.data() + lo, hi - lo),
        std::span<const nn::Index>(elems_.data() + lo, hi - lo)};
  }
  /// True for the extended interleaved sequence (even positions read
  /// node states, odd positions link states).
  [[nodiscard]] bool interleaved() const noexcept { return interleaved_; }
  /// Total (path, position) participations across the arena.
  [[nodiscard]] std::size_t total_entries() const noexcept {
    return rows_.size();
  }
  /// Exact resident bytes of every index buffer — what core::PlanCache
  /// charges an entry against its byte budget.  Grows O(sum of path
  /// lengths); tests/core_plan_test.cpp pins the growth law.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return (rows_.size() + elems_.size() + inc_path_rows.size() +
            inc_node_ids.size()) *
               sizeof(nn::Index) +
           offsets_.size() * sizeof(std::uint32_t);
  }

  // -- builder interface (build_plan only) ------------------------------
  void arena_reserve(std::size_t positions, std::size_t entries) {
    offsets_.reserve(positions + 1);
    rows_.reserve(entries);
    elems_.reserve(entries);
  }
  void set_interleaved(bool v) noexcept { interleaved_ = v; }
  void push_entry(nn::Index row, nn::Index elem) {
    rows_.push_back(row);
    elems_.push_back(elem);
  }
  void close_position() {
    offsets_.push_back(static_cast<std::uint32_t>(rows_.size()));
  }
  /// Drop empty trailing positions (the interleaved sequence's parity
  /// padding) so the RNN loop does no zero-row work.
  void drop_empty_tail() {
    while (num_positions() > 0 &&
           offsets_[offsets_.size() - 2] == offsets_.back())
      offsets_.pop_back();
  }

 private:
  bool interleaved_ = false;
  std::vector<nn::Index> rows_;           ///< arena: active path rows
  std::vector<nn::Index> elems_;          ///< arena: element ids
  std::vector<std::uint32_t> offsets_{0};  ///< position p = [off[p], off[p+1])
};

/// Build the plan for one sample.  use_nodes selects the extended
/// interleaved sequence (and fills the node incidence sets); it then
/// throws std::out_of_range for a path with fewer nodes than links.
/// Element ids are copied unchecked — the model's gathers check them.
[[nodiscard]] MpPlan build_plan(const data::Sample& sample, bool use_nodes);

// -- reference layout (tests only) ----------------------------------------

/// The pre-arena plan layout: one pair of materialized index vectors per
/// position.  Kept solely as the bitwise reference the arena builder is
/// pinned against (tests/core_plan_test.cpp); O(paths x positions) heap
/// blocks, so never used on the serving path.
struct RefSeqPosition {
  bool is_node = false;
  std::vector<nn::Index> path_rows;
  std::vector<nn::Index> elem_ids;
};

struct RefPlan {
  std::size_t num_paths = 0;
  std::size_t num_links = 0;
  std::size_t num_nodes = 0;
  std::vector<RefSeqPosition> positions;
  std::vector<nn::Index> inc_path_rows;
  std::vector<nn::Index> inc_node_ids;
};

/// The original per-position builder, byte-for-byte the seed algorithm.
[[nodiscard]] RefPlan build_plan_reference(const data::Sample& sample,
                                           bool use_nodes);

/// Rows of sample.paths whose labels are trustworthy (delivered >=
/// min_delivered and a positive label for the requested target); the
/// trainer and evaluator restrict the loss/metrics to these.
[[nodiscard]] std::vector<nn::Index> valid_label_rows(
    const data::Sample& sample, std::uint64_t min_delivered,
    PredictionTarget target = PredictionTarget::kDelay);

}  // namespace rnx::core
