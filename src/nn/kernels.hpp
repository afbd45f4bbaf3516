// Runtime-dispatched SIMD kernel backends for the dense hot path.
//
// Every dense-algebra and elementwise primitive behind nn::Tensor,
// nn::ops and the fused GRU step routes through one Backend of raw
// function pointers, selected once per process:
//
//   * scalar   — the pre-SIMD reference kernels, unchanged code, same
//                blocked accumulation order.  Bitwise-stable: this
//                backend reproduces pre-backend-layer outputs exactly.
//   * avx2+fma — x86-64 AVX2/FMA register-tiled kernels + vectorized
//                exp/sigmoid/tanh.  Linear elementwise kernels are
//                bitwise-identical to scalar (same per-element IEEE
//                ops); matmul kernels keep the scalar per-cell
//                accumulation order but contract mul+add into FMA, and
//                the transcendentals use a Cephes-style polynomial, so
//                those results are pinned to a small-ulp bound instead
//                (tests/nn_kernels_test.cpp, DESIGN.md §K).
//   * avx512   — the avx2+fma table with gru_step, vsigmoid and vtanh
//                at 8 doubles per instruction (kernels_avx512.cpp).
//                Every cell runs the AVX2 kernel's exact operation
//                sequence, so each output is
//                bitwise-equal to avx2+fma's (a NaN's payload aside;
//                tests/nn_kernels_cross_table_test.cpp).  The backward
//                stays the AVX2 one: its dh dots follow matmul_nt_acc's
//                4-lane order, which an 8-lane kernel would change.
//
// Only the SIMD tables provide the optional whole-step GRU kernels, for
// narrow hidden widths: `gru_project` and `gru_step` (the forward, which
// a taped step also runs to save the activations its backward needs) and
// `gru_step_backward`, the h side of the backward, whose caller runs the
// x side once per x row.  Their outputs, and the h-side gradients, are
// bitwise-equal to the same backend's composition of matmul kernels and
// gru_gates / gru_blend passes; the x-side gradients are summed per x
// row first and agree to rounding (DESIGN.md §K).
//
// Dispatch: the best backend the CPU supports wins — avx512 when the CPU
// and OS support AVX-512F/DQ/VL, else avx2+fma when the CPU supports
// AVX2+FMA (x86-64), else scalar (aarch64 included).  RNX_SIMD=scalar
// forces the reference backend; RNX_SIMD=native forces auto-detection
// (and is the explicit spelling of the default); any other value throws.
// The decision is made once, on first use, and is immutable for the
// process — except for ScopedBackendOverride, the thread-local hook the
// parity tests and bench_nn_ops use to run every backend in one process
// (supported_backends() lists them).
//
// Linkage rule: each SIMD table's file is the only one compiled with its
// ISA flags, and its code runs only once dispatch has checked the CPU.
// So a SIMD file must not emit an inline entity with external linkage
// (a header template such as std::vector's members, or a template shared
// with another kernel file): the linker keeps one copy of each, and
// could keep the AVX-512 one for a caller on a CPU without AVX-512.
// Shared templates (kernels_vmath.hpp) have internal linkage; CI checks
// that only kernels_avx512.cpp's functions use AVX-512 registers.
//
// Alignment contract: Tensor buffers are 64-byte aligned (kTensorAlign)
// so vector kernels never split a cache line at the base pointer.  Row
// starts are NOT aligned for arbitrary cols, so kernels use unaligned
// loads; the aligned base still keeps hot panels cache-line-tidy.
// Kernels accept any size >= 0 and any pointers for n == 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rnx::nn::kernels {

/// The nine parameters of one GRU cell (nn/gru.hpp), dense row-major:
/// wx* are (in x hid), wh* are (hid x hid), b* are (1 x hid).
struct GruWeights {
  const double* wxz;
  const double* whz;
  const double* bz;
  const double* wxr;
  const double* whr;
  const double* br;
  const double* wxn;
  const double* whn;
  const double* bn;
};

/// Gradient accumulators of the same nine parameters, laid out as
/// GruWeights.
struct GruGrads {
  double* wxz;
  double* whz;
  double* bz;
  double* wxr;
  double* whr;
  double* br;
  double* wxn;
  double* whn;
  double* bn;
};

/// What a taped step saves for its backward, each (rows x hid), row i
/// for the i-th stepped row: z, r and the candidate n = tanh(.).
struct GruActs {
  double* z;
  double* r;
  double* n;
};

/// One kernel backend.  All matrices are dense row-major double; `acc`
/// kernels accumulate into c.  Shapes follow nn::Tensor's matmul
/// contracts (tensor.hpp).
struct Backend {
  /// Stable lowercase tag for logs / BENCH json ("scalar", "avx2+fma",
  /// "avx512").
  const char* name = "scalar";

  // -- dense: C (n x m) views, reduction length k -----------------------
  /// c += a (n x k) * b (k x m)
  void (*matmul_acc)(double* c, const double* a, const double* b,
                     std::size_t n, std::size_t k, std::size_t m);
  /// c (n x m) += a^T * b, a is (k x n), b is (k x m)
  void (*matmul_tn_acc)(double* c, const double* a, const double* b,
                        std::size_t n, std::size_t k, std::size_t m);
  /// c (n x m) += a (n x k) * b^T, b is (m x k)
  void (*matmul_nt_acc)(double* c, const double* a, const double* b,
                        std::size_t n, std::size_t k, std::size_t m);

  // -- elementwise over flat arrays of length n -------------------------
  void (*vadd)(double* y, const double* a, const double* b, std::size_t n);
  void (*vsub)(double* y, const double* a, const double* b, std::size_t n);
  void (*vmul)(double* y, const double* a, const double* b, std::size_t n);
  /// y += a .* b (elementwise multiply-accumulate; mul then add, so it
  /// is bitwise-stable across backends)
  void (*vmacc)(double* y, const double* a, const double* b, std::size_t n);
  /// y += alpha * x
  void (*vaxpy)(double* y, double alpha, const double* x, std::size_t n);
  /// y = alpha * a + beta
  void (*vaffine)(double* y, const double* a, double alpha, double beta,
                  std::size_t n);
  void (*vrelu)(double* y, const double* a, std::size_t n);
  void (*vsigmoid)(double* y, const double* a, std::size_t n);
  void (*vtanh)(double* y, const double* a, std::size_t n);

  // -- fused GRU passes (gru.cpp) ---------------------------------------
  /// Gate pass over one (rows x 2*hid) pre-activation panel a_zr:
  /// z = sigmoid(a_zr[:, :hid]), r = sigmoid(a_zr[:, hid:]), rh = r .* h.
  /// z/r/rh/h are (rows x hid) contiguous.
  void (*gru_gates)(double* z, double* r, double* rh, const double* a_zr,
                    const double* h, std::size_t rows, std::size_t hid);
  /// Blend pass over flat arrays of length n: nout = tanh(an),
  /// y = (1 - z) .* nout + z .* h.
  void (*gru_blend)(double* nout, double* y, const double* an,
                    const double* z, const double* h, std::size_t n);

  // -- whole GRU step (optional; nullptr if absent) ----------------------
  // A backend has gru_project and gru_step both or neither, for the same
  // widths.  The step is split in two so a source row that many stepped
  // rows read is multiplied by the input weights once: gru_project turns
  // x rows into u rows, and gru_step finishes the step from them.
  /// u row i (3*hid wide, [z | r | n]) = [bz | br | bn] + x row x_rows[i]
  /// (in wide; null: row i) times [Wxz | Wxr | Wxn]: the three gates'
  /// pre-activations up to the h terms, each cell the bias and then the x
  /// terms p-ascending as FMA.  u must not overlap x.  Indices are
  /// trusted: callers validate them.  Returns false, having touched
  /// nothing, when the backend has no kernel for `hid`.
  bool (*gru_project)(double* u, const double* x,
                      const std::uint32_t* x_rows, std::size_t rows,
                      std::size_t in, std::size_t hid, const GruWeights& w);
  /// One step for `rows` rows from projected inputs: row i reads u row
  /// u_rows[i] (gru_project's layout) and h row h_rows[i] (hid wide) and
  /// writes the new state to y row y_rows[i]; a null index array means
  /// row i.  Each pre-activation starts from its u cell and adds the h
  /// terms (z, r) or the r.*h terms (candidate) p-ascending, so the step
  /// equals the matmul route over [x|h] bit for bit.  Only Whz, Whr and
  /// Whn of `w` are read.  y may be h itself (in-place update) when every
  /// y row is an h row of the same i and the h rows are distinct, or when
  /// no y row is an h row; y must not overlap u.  Indices are trusted:
  /// callers validate them.  A non-null `save` also receives z, r and n,
  /// row i contiguous (a separate instantiation, so the untaped step
  /// serving runs is unchanged).  Returns false, having touched nothing,
  /// when the backend has no kernel for `hid`.
  bool (*gru_step)(double* y, const std::uint32_t* y_rows, const double* u,
                   const std::uint32_t* u_rows, const double* h,
                   const std::uint32_t* h_rows, std::size_t rows,
                   std::size_t hid, const GruWeights& w, const GruActs* save);
  /// The h side of one saved step's backward.  Row i of the step read h
  /// row h_rows[i] (hid wide; null: row i), and z/r/n are its saved
  /// activations, row i contiguous.  Row i's upstream grad dL/dy is g row
  /// i, or, when carry_rows is non-null, dh row carry_rows[i] + g row i.
  ///   * du: row i's pre-activation grad [dz | dr | dn] (3*hid wide, the
  ///     grads of the z, r and candidate sums before the sigmoid and tanh)
  ///     is added into du row du_rows[i] (null: row i), rows in ascending
  ///     i.  Rows that read one x row thus sum into one DU row, and the
  ///     caller runs the x side once per x row: dx = DU [Wxz|Wxr|Wxn]^T,
  ///     the Wx grads X^T DU, the bias grads DU's column sums.
  ///   * dh: without carry_rows, dL/dh of row i is added into dh row i
  ///     (dh may be null: not computed).  With carry_rows, dh is the
  ///     sweep's carry (dL/dh per path state): row i reads its carry row
  ///     into dL/dy first and then replaces it with its dL/dh, so the carry
  ///     rows must be distinct.
  ///   * dw: adds the Whz, Whr and Whn grads only.
  /// Every cell it writes takes the operation order of the composed
  /// backward of the same backend.  du must not overlap dh, g, h or the
  /// activations, nor dh overlap g, h or the activations.  Indices are
  /// trusted: callers validate them.  Returns false, having touched
  /// nothing, when the backend has no kernel for `hid`.
  bool (*gru_step_backward)(double* du, const std::uint32_t* du_rows,
                            double* dh, const std::uint32_t* carry_rows,
                            const double* g, const double* h,
                            const std::uint32_t* h_rows, const double* z,
                            const double* r, const double* n,
                            std::size_t rows, std::size_t hid,
                            const GruWeights& w, const GruGrads& dw);
};

/// The reference backend (always available).
[[nodiscard]] const Backend& scalar_backend() noexcept;

/// The AVX2/FMA backend when this binary targets x86-64 AND this CPU
/// supports AVX2+FMA, else nullptr.  Defined in kernels_avx2.cpp so only
/// that file needs its ISA compile flags.
[[nodiscard]] const Backend* avx2_backend() noexcept;

/// The AVX-512 backend when this binary targets x86-64 AND this CPU and
/// its OS support AVX-512F/DQ/VL (and AVX2+FMA), else nullptr: the AVX2
/// table with the AVX-512 gru_step, vsigmoid and vtanh.
[[nodiscard]] const Backend* avx512_backend() noexcept;

/// The best SIMD backend this CPU can run (avx512, else avx2+fma), or
/// nullptr when only scalar is available.  Auto-detection picks it.
[[nodiscard]] const Backend* simd_backend() noexcept;

/// Every backend this CPU can run: scalar first, then avx2+fma and
/// avx512 where supported.  Parity tests and bench_nn_ops iterate it.
[[nodiscard]] std::span<const Backend* const> supported_backends() noexcept;

/// The backend every nn kernel call dispatches through: the thread's
/// ScopedBackendOverride if one is active, else the process-wide choice
/// resolved once from RNX_SIMD + CPU detection.  Throws
/// std::runtime_error on an invalid RNX_SIMD value (first call only).
[[nodiscard]] const Backend& active();

/// Why the process-wide backend was chosen — e.g. "auto-detected: cpu
/// supports avx2+fma" or "forced by RNX_SIMD=scalar".  Resolves the
/// dispatch if it has not run yet.
[[nodiscard]] const char* dispatch_reason();

/// Pin this thread to a specific backend while alive (parity tests and
/// scalar-vs-SIMD benches; nests, restores the previous override).
class ScopedBackendOverride {
 public:
  explicit ScopedBackendOverride(const Backend& backend) noexcept;
  ~ScopedBackendOverride();
  ScopedBackendOverride(const ScopedBackendOverride&) = delete;
  ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;

 private:
  const Backend* prev_;
};

}  // namespace rnx::nn::kernels
