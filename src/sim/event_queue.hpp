// Pending-event queue of the packet simulator (DESIGN.md S1).
//
// A 4-ary min-heap of 16-byte entries: the event time and one u64 key
// that packs (seq | kind | id).  seq is a per-queue counter assigned in
// push order, so the heap pops in the strict total order (time, seq) —
// the order the simulator's results are defined by.  Events carry no
// payload; the simulator keeps packets in flight on a wire in per-link
// FIFOs and looks the rest up by id.
//
// The rank compares the time's bit pattern as an unsigned integer, which
// orders exactly like the double for +0 and positive finite or infinite
// times.  push() therefore requires `time >= 0` and not NaN (the
// simulator guarantees it: every time is 0 plus non-negative gaps).
//
// Replace-top: take() hands out the earliest event but leaves its slot
// in place; the next push() overwrites that slot and sifts it down
// instead of a separate pop and push, and settle() drops the slot if no
// push came.  The result is the same heap contents as pop-then-push, and
// since (time, seq) is a strict total order, any valid heap over the same
// entries pops the same sequence — replace-top cannot reorder events.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace rnx::sim {

struct QueuedEvent {
  double time;
  std::uint32_t kind;  ///< < EventQueue::kKinds
  std::uint32_t id;
};

class EventQueue {
 public:
  static constexpr std::uint32_t kKinds = 4;

  /// `max_id` bounds every id pushed; the key gives ids just the bits
  /// they need and seq the rest (at least 30 bits).  A push past the
  /// seq range throws std::overflow_error instead of wrapping.
  explicit EventQueue(std::uint32_t max_id)
      : id_bits_(static_cast<unsigned>(std::bit_width(max_id))),
        seq_shift_(id_bits_ + 2),
        max_seq_((std::uint64_t{1} << (64 - seq_shift_)) - 1) {}

  /// True when nothing is pending.  Precondition: settled (no take()
  /// awaiting its settle()).
  [[nodiscard]] bool empty() const noexcept {
    assert(!taken_);
    return heap_.empty();
  }

  /// Schedule an event; `time` must be >= 0 and not NaN.
  void push(double time, std::uint32_t kind, std::uint32_t id) {
    assert(time >= 0.0 && kind < kKinds && id < (std::uint64_t{1} << id_bits_));
    if (seq_ > max_seq_)
      throw std::overflow_error("EventQueue: event sequence number overflow");
    const Entry e{time, (seq_++ << seq_shift_) |
                            (std::uint64_t{kind} << id_bits_) | id};
    if (taken_) {
      taken_ = false;
      sift_down(0, e);
    } else {
      heap_.push_back(e);
      sift_up(heap_.size() - 1, e);
    }
  }

  /// Remove and return the earliest event.  Its slot is reused by the
  /// next push(); call settle() once the event's pushes are done.
  /// Precondition: !empty().
  [[nodiscard]] QueuedEvent take() noexcept {
    assert(!taken_ && !heap_.empty());
    taken_ = true;
    const Entry& e = heap_.front();
    return {e.time,
            static_cast<std::uint32_t>(e.key >> id_bits_) & (kKinds - 1),
            static_cast<std::uint32_t>(e.key) & id_mask()};
  }

  /// Drop the taken slot if no push() reused it.
  void settle() noexcept {
    if (!taken_) return;
    taken_ = false;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

 private:
  struct Entry {
    double time;
    std::uint64_t key;  // seq << seq_shift_ | kind << id_bits_ | id
  };
  static_assert(sizeof(Entry) == 16);

  using Rank = unsigned __int128;
  [[nodiscard]] static Rank rank(const Entry& e) noexcept {
    return (Rank{std::bit_cast<std::uint64_t>(e.time)} << 64) | e.key;
  }

  [[nodiscard]] std::uint32_t id_mask() const noexcept {
    return static_cast<std::uint32_t>((std::uint64_t{1} << id_bits_) - 1);
  }

  void sift_up(std::size_t i, const Entry e) noexcept {
    const Rank r = rank(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(r < rank(heap_[parent]))) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Place `e` at hole `i` and move it down to its level.
  void sift_down(std::size_t i, const Entry e) noexcept {
    const Rank r = rank(e);
    const std::size_t n = heap_.size();
    const Entry* h = heap_.data();
    for (;;) {
      const std::size_t c = 4 * i + 1;
      if (c >= n) break;
      std::size_t m = c;
      if (c + 3 < n) {
        // Branchless min of four: two pairs, then the pair winners.
        const std::size_t a = rank(h[c + 1]) < rank(h[c]) ? c + 1 : c;
        const std::size_t b = rank(h[c + 3]) < rank(h[c + 2]) ? c + 3 : c + 2;
        m = rank(h[b]) < rank(h[a]) ? b : a;
      } else {
        for (std::size_t k = c + 1; k < n; ++k)
          if (rank(h[k]) < rank(h[m])) m = k;
      }
      if (!(rank(h[m]) < r)) break;
      heap_[i] = h[m];
      i = m;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
  unsigned id_bits_;
  unsigned seq_shift_;
  std::uint64_t max_seq_;
  std::uint64_t seq_ = 0;
  bool taken_ = false;
};

}  // namespace rnx::sim
