// Free-list tensor pool for backprop scratch space.
//
// One GRU step used to allocate ~15 tape tensors; the fused kernel cuts
// that to a handful of gate buffers whose shapes repeat every step.  The
// pool recycles buffers through a small thread-local free list, so the
// large ones a training sample's tape holds (the path-RNN sweep's
// arenas) are reused by the next sample instead of being allocated and
// faulted in again.  It does not make training allocation-free: small
// buffers still come from the allocator (DESIGN.md S3 has the counts).
//
// Thread-local by construction: each trainer lane has its own list, so
// acquire/release need no synchronization and recycled buffers never
// migrate between threads.
#pragma once

#include <cstddef>

#include "nn/tensor.hpp"

namespace rnx::nn {

class TensorPool {
 public:
  /// A rows x cols tensor, zero-filled, backed by a recycled buffer when
  /// this thread's free list holds one of rows * cols to twice that
  /// capacity (the smallest such), else by the largest one of half that
  /// capacity or more, grown.
  [[nodiscard]] static Tensor acquire(std::size_t rows, std::size_t cols);

  /// As acquire(), but with unspecified contents — for buffers every
  /// element of which the caller overwrites before reading (gate panels,
  /// concatenation scratch).  Skips the zero-fill pass on reuse.
  [[nodiscard]] static Tensor acquire_uninit(std::size_t rows,
                                             std::size_t cols);

  /// Return a tensor's buffer to this thread's free list.  The tensor is
  /// left empty; releasing an empty tensor is a no-op.  A full list keeps
  /// its largest buffers.
  static void release(Tensor&& t);

  /// Buffers currently parked on this thread's free list (tests).
  [[nodiscard]] static std::size_t pooled_count() noexcept;

  /// Drop this thread's free list (tests / memory pressure).
  static void drain() noexcept;
};

}  // namespace rnx::nn
