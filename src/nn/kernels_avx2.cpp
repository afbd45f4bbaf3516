// AVX2+FMA backend.  Compiled with -mavx2 -mfma -ffp-contract=off (see
// CMakeLists.txt): vector FMA is used only where this file spells it out
// with _mm256_fmadd_pd, so the plain scalar tail loops below stay
// bitwise-identical to the scalar reference backend.
//
// Parity contract vs the scalar backend (pinned in nn_kernels_test.cpp):
//   * linear elementwise kernels (vadd..vaffine, vrelu, the gru blend's
//     mul+add) — bitwise identical: same per-element IEEE ops, no FMA;
//   * matmul family — same per-cell ascending-p accumulation order, but
//     mul+add contracted to FMA, no av == 0.0 skip, and matmul_nt_acc
//     sums in 4+4 lanes instead of 2, so results agree to a small
//     relative bound instead of bitwise;
//   * vsigmoid/vtanh — one division per vector each, a ratio of the
//     same Cephes-style exp parts instead of libm; within 8 ulp for
//     |x| <= 700 (measured <= 4), the same 0/±1 limits at ±inf, NaN in
//     gives NaN out, and tanh(-0) = -0.
#include "nn/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace rnx::nn::kernels {
namespace avx2 {
namespace {

// ---------------------------------------------------------------------------
// matmul_acc: c (n x m) += a (n x k) * b (k x m).
//
// j-tiled register accumulation: a tile of C cells lives in ymm registers
// while p sweeps the reduction ascending, so each C cell sees the exact
// scalar accumulation order (initial value first, then p ascending) with
// mul+add contracted to FMA.  Two A rows share each B load; 8 independent
// FMA chains hide the FMA latency at 2 issues/cycle.
// ---------------------------------------------------------------------------

// bpanel points at the first 16-wide B row of the tile's column panel;
// consecutive reduction rows are bstride apart (m when reading B in
// place, 16 when reading a packed panel — same values either way).
inline void mm_tile_2x16(double* c0, double* c1, const double* a0,
                         const double* a1, const double* bpanel,
                         std::size_t k, std::size_t bstride) {
  __m256d r00 = _mm256_loadu_pd(c0), r01 = _mm256_loadu_pd(c0 + 4);
  __m256d r02 = _mm256_loadu_pd(c0 + 8), r03 = _mm256_loadu_pd(c0 + 12);
  __m256d r10 = _mm256_loadu_pd(c1), r11 = _mm256_loadu_pd(c1 + 4);
  __m256d r12 = _mm256_loadu_pd(c1 + 8), r13 = _mm256_loadu_pd(c1 + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bpanel + p * bstride;
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    const __m256d b2 = _mm256_loadu_pd(brow + 8);
    const __m256d b3 = _mm256_loadu_pd(brow + 12);
    const __m256d va0 = _mm256_broadcast_sd(a0 + p);
    r00 = _mm256_fmadd_pd(va0, b0, r00);
    r01 = _mm256_fmadd_pd(va0, b1, r01);
    r02 = _mm256_fmadd_pd(va0, b2, r02);
    r03 = _mm256_fmadd_pd(va0, b3, r03);
    const __m256d va1 = _mm256_broadcast_sd(a1 + p);
    r10 = _mm256_fmadd_pd(va1, b0, r10);
    r11 = _mm256_fmadd_pd(va1, b1, r11);
    r12 = _mm256_fmadd_pd(va1, b2, r12);
    r13 = _mm256_fmadd_pd(va1, b3, r13);
  }
  _mm256_storeu_pd(c0, r00);
  _mm256_storeu_pd(c0 + 4, r01);
  _mm256_storeu_pd(c0 + 8, r02);
  _mm256_storeu_pd(c0 + 12, r03);
  _mm256_storeu_pd(c1, r10);
  _mm256_storeu_pd(c1 + 4, r11);
  _mm256_storeu_pd(c1 + 8, r12);
  _mm256_storeu_pd(c1 + 12, r13);
}

inline void mm_tile_1x16(double* c0, const double* a0, const double* bpanel,
                         std::size_t k, std::size_t bstride) {
  __m256d r0 = _mm256_loadu_pd(c0), r1 = _mm256_loadu_pd(c0 + 4);
  __m256d r2 = _mm256_loadu_pd(c0 + 8), r3 = _mm256_loadu_pd(c0 + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bpanel + p * bstride;
    const __m256d va = _mm256_broadcast_sd(a0 + p);
    r0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow), r0);
    r1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 4), r1);
    r2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 8), r2);
    r3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 12), r3);
  }
  _mm256_storeu_pd(c0, r0);
  _mm256_storeu_pd(c0 + 4, r1);
  _mm256_storeu_pd(c0 + 8, r2);
  _mm256_storeu_pd(c0 + 12, r3);
}

/// B panels bigger than this (bytes) get copied into a contiguous
/// thread-local pack before the tile sweep: a 16-doubles-wide strided
/// walk over a panel that exceeds half of L1 misses constantly, while
/// the packed copy streams sequentially.  The copy is value-preserving,
/// so packed and in-place paths are bitwise identical.
constexpr std::size_t kPackBytes = 16 * 1024;

inline const double* pack_bpanel(const double* b, std::size_t k,
                                 std::size_t m, std::size_t j) {
  static thread_local std::vector<double> pack;
  pack.resize(k * 16);
  for (std::size_t p = 0; p < k; ++p)
    std::memcpy(pack.data() + p * 16, b + p * m + j, 16 * sizeof(double));
  return pack.data();
}

// Column tail for one row: 4-wide vectors, then scalar FMA.
inline void mm_row_tail(double* crow, const double* arow, const double* b,
                        std::size_t k, std::size_t m, std::size_t j0) {
  std::size_t j = j0;
  for (; j + 4 <= m; j += 4) {
    __m256d r = _mm256_loadu_pd(crow + j);
    for (std::size_t p = 0; p < k; ++p)
      r = _mm256_fmadd_pd(_mm256_broadcast_sd(arow + p),
                          _mm256_loadu_pd(b + p * m + j), r);
    _mm256_storeu_pd(crow + j, r);
  }
  for (; j < m; ++j) {
    double s = crow[j];
    for (std::size_t p = 0; p < k; ++p) s = std::fma(arow[p], b[p * m + j], s);
    crow[j] = s;
  }
}

void matmul_acc(double* c, const double* a, const double* b, std::size_t n,
                std::size_t k, std::size_t m) {
  // j-panel outer: the (k x 16) B panel a tile sweeps stays hot across
  // every row pair instead of being re-streamed per pair.  Tile order
  // does not touch per-cell accumulation order (each C cell is still
  // initial value, then p ascending).
  const std::size_t j16 = m - m % 16;
  const bool pack = k * m * sizeof(double) > kPackBytes && n >= 8;
  for (std::size_t j = 0; j < j16; j += 16) {
    const double* bpanel = pack ? pack_bpanel(b, k, m, j) : b + j;
    const std::size_t bstride = pack ? 16 : m;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
      mm_tile_2x16(c + i * m + j, c + (i + 1) * m + j, a + i * k,
                   a + (i + 1) * k, bpanel, k, bstride);
    if (i < n) mm_tile_1x16(c + i * m + j, a + i * k, bpanel, k, bstride);
  }
  if (j16 < m)
    for (std::size_t i = 0; i < n; ++i)
      mm_row_tail(c + i * m, a + i * k, b, k, m, j16);
}

// ---------------------------------------------------------------------------
// matmul_tn_acc: c (n x m) += a^T (a: k x n) * b (k x m).
//
// Same register-tile scheme; the A operand is walked down a column
// (a[p*n + i]), and two adjacent columns i, i+1 are adjacent in memory,
// so the two broadcasts of each p iteration touch one cache line.
// ---------------------------------------------------------------------------

inline void tn_tile_2x16(double* c0, double* c1, const double* a,
                         const double* bpanel, std::size_t k, std::size_t n,
                         std::size_t bstride, std::size_t i) {
  __m256d r00 = _mm256_loadu_pd(c0), r01 = _mm256_loadu_pd(c0 + 4);
  __m256d r02 = _mm256_loadu_pd(c0 + 8), r03 = _mm256_loadu_pd(c0 + 12);
  __m256d r10 = _mm256_loadu_pd(c1), r11 = _mm256_loadu_pd(c1 + 4);
  __m256d r12 = _mm256_loadu_pd(c1 + 8), r13 = _mm256_loadu_pd(c1 + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bpanel + p * bstride;
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    const __m256d b2 = _mm256_loadu_pd(brow + 8);
    const __m256d b3 = _mm256_loadu_pd(brow + 12);
    const double* acol = a + p * n + i;
    const __m256d va0 = _mm256_broadcast_sd(acol);
    r00 = _mm256_fmadd_pd(va0, b0, r00);
    r01 = _mm256_fmadd_pd(va0, b1, r01);
    r02 = _mm256_fmadd_pd(va0, b2, r02);
    r03 = _mm256_fmadd_pd(va0, b3, r03);
    const __m256d va1 = _mm256_broadcast_sd(acol + 1);
    r10 = _mm256_fmadd_pd(va1, b0, r10);
    r11 = _mm256_fmadd_pd(va1, b1, r11);
    r12 = _mm256_fmadd_pd(va1, b2, r12);
    r13 = _mm256_fmadd_pd(va1, b3, r13);
  }
  _mm256_storeu_pd(c0, r00);
  _mm256_storeu_pd(c0 + 4, r01);
  _mm256_storeu_pd(c0 + 8, r02);
  _mm256_storeu_pd(c0 + 12, r03);
  _mm256_storeu_pd(c1, r10);
  _mm256_storeu_pd(c1 + 4, r11);
  _mm256_storeu_pd(c1 + 8, r12);
  _mm256_storeu_pd(c1 + 12, r13);
}

inline void tn_tile_1x16(double* c0, const double* a, const double* bpanel,
                         std::size_t k, std::size_t n, std::size_t bstride,
                         std::size_t i) {
  __m256d r0 = _mm256_loadu_pd(c0), r1 = _mm256_loadu_pd(c0 + 4);
  __m256d r2 = _mm256_loadu_pd(c0 + 8), r3 = _mm256_loadu_pd(c0 + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bpanel + p * bstride;
    const __m256d va = _mm256_broadcast_sd(a + p * n + i);
    r0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow), r0);
    r1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 4), r1);
    r2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 8), r2);
    r3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 12), r3);
  }
  _mm256_storeu_pd(c0, r0);
  _mm256_storeu_pd(c0 + 4, r1);
  _mm256_storeu_pd(c0 + 8, r2);
  _mm256_storeu_pd(c0 + 12, r3);
}

inline void tn_row_tail(double* crow, const double* a, const double* b,
                        std::size_t k, std::size_t n, std::size_t m,
                        std::size_t i, std::size_t j0) {
  std::size_t j = j0;
  for (; j + 4 <= m; j += 4) {
    __m256d r = _mm256_loadu_pd(crow + j);
    for (std::size_t p = 0; p < k; ++p)
      r = _mm256_fmadd_pd(_mm256_broadcast_sd(a + p * n + i),
                          _mm256_loadu_pd(b + p * m + j), r);
    _mm256_storeu_pd(crow + j, r);
  }
  for (; j < m; ++j) {
    double s = crow[j];
    for (std::size_t p = 0; p < k; ++p)
      s = std::fma(a[p * n + i], b[p * m + j], s);
    crow[j] = s;
  }
}

void matmul_tn_acc(double* c, const double* a, const double* b, std::size_t n,
                   std::size_t k, std::size_t m) {
  // j-panel outer with the same B-panel packing as matmul_acc.
  const std::size_t j16 = m - m % 16;
  const bool pack = k * m * sizeof(double) > kPackBytes && n >= 8;
  for (std::size_t j = 0; j < j16; j += 16) {
    const double* bpanel = pack ? pack_bpanel(b, k, m, j) : b + j;
    const std::size_t bstride = pack ? 16 : m;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
      tn_tile_2x16(c + i * m + j, c + (i + 1) * m + j, a, bpanel, k, n,
                   bstride, i);
    if (i < n) tn_tile_1x16(c + i * m + j, a, bpanel, k, n, bstride, i);
  }
  if (j16 < m)
    for (std::size_t i = 0; i < n; ++i)
      tn_row_tail(c + i * m, a, b, k, n, m, i, j16);
}

// ---------------------------------------------------------------------------
// matmul_nt_acc: c (n x m) += a (n x k) * b^T (b: m x k).
//
// Row-times-row dot products.  Four B rows at a time against one A row:
// each of the 4 accumulators reduces its own row in 4 lanes (ascending p
// within a lane), then a transpose-reduce folds them into one 4-wide
// update of C.  Lane count differs from the scalar backend's 2, so this
// kernel is relative-bound, not bitwise.
// ---------------------------------------------------------------------------

inline __m256d hsum4(__m256d acc0, __m256d acc1, __m256d acc2, __m256d acc3) {
  // [a01, b01, a23, b23] / [c01, d01, c23, d23] -> per-row totals [a,b,c,d]
  const __m256d t0 = _mm256_hadd_pd(acc0, acc1);
  const __m256d t1 = _mm256_hadd_pd(acc2, acc3);
  const __m256d lo = _mm256_permute2f128_pd(t0, t1, 0x20);
  const __m256d hi = _mm256_permute2f128_pd(t0, t1, 0x31);
  return _mm256_add_pd(lo, hi);
}

void matmul_nt_acc(double* c, const double* a, const double* b, std::size_t n,
                   std::size_t k, std::size_t m) {
  const std::size_t k4 = k - k % 4;
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < k4; p += 4) {
        const __m256d va = _mm256_loadu_pd(arow + p);
        acc0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b0 + p), acc0);
        acc1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b1 + p), acc1);
        acc2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b2 + p), acc2);
        acc3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b3 + p), acc3);
      }
      __m256d sums = hsum4(acc0, acc1, acc2, acc3);
      if (k4 < k) {
        // Reduction tail: finish each dot scalar, lane-extracted.
        alignas(32) double s[4];
        _mm256_store_pd(s, sums);
        for (std::size_t p = k4; p < k; ++p) {
          const double av = arow[p];
          s[0] = std::fma(av, b0[p], s[0]);
          s[1] = std::fma(av, b1[p], s[1]);
          s[2] = std::fma(av, b2[p], s[2]);
          s[3] = std::fma(av, b3[p], s[3]);
        }
        sums = _mm256_load_pd(s);
      }
      _mm256_storeu_pd(crow + j,
                       _mm256_add_pd(_mm256_loadu_pd(crow + j), sums));
    }
    for (; j < m; ++j) {
      const double* brow = b + j * k;
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s = std::fma(arow[p], brow[p], s);
      crow[j] += s;
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise linear kernels: 4-wide mul/add only (no FMA), so every
// element goes through exactly the scalar backend's IEEE ops — bitwise
// identical, just four at a time.
// ---------------------------------------------------------------------------

void vadd(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

void vsub(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) y[i] = a[i] - b[i];
}

void vmul(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) y[i] = a[i] * b[i];
}

void vmacc(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a[i] * b[i];
}

void vaxpy(double* y, double alpha, const double* x, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void vaffine(double* y, const double* a, double alpha, double beta,
             std::size_t n) {
  const __m256d valpha = _mm256_set1_pd(alpha);
  const __m256d vbeta = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i,
        _mm256_add_pd(_mm256_mul_pd(valpha, _mm256_loadu_pd(a + i)), vbeta));
  for (; i < n; ++i) y[i] = alpha * a[i] + beta;
}

void vrelu(double* y, const double* a, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    // a > 0 ? a : 0 — blend keeps the scalar branch semantics (so -0.0
    // maps to +0.0 exactly like the reference).
    _mm256_storeu_pd(y + i,
                     _mm256_and_pd(v, _mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) y[i] = a[i] > 0.0 ? a[i] : 0.0;
}

// ---------------------------------------------------------------------------
// sigmoid and tanh as one ratio each of the same Cephes exp parts.  This
// is where the GRU's elementwise time goes, and the divider bounds it,
// so each costs one division per vector.  Both are a few ulp from the
// libm reference, with no cancellation near 0.
// ---------------------------------------------------------------------------

constexpr double kMinLog = -708.396418532264078749;  // log(DBL_MIN), normal
constexpr double kSigmoidMaxArg = 708.0;  // s·Q stays finite below this

/// e^x = s (Q + P) / (Q - P), s = 2^n, where P / Q = tanh(r / 2) on the
/// reduced argument r = x - n ln2, |r| <= ln2 / 2.  x must lie in
/// [kMinLog, kSigmoidMaxArg] (or be NaN, which reaches P and Q).
struct ExpParts {
  __m256d p, q, s;
};

inline ExpParts vexp_parts(__m256d x) {
  // n = round(x * log2(e)); r = x - n*ln2 in two pieces for accuracy.
  const __m256d vlog2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, vlog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_pd(n, _mm256_set1_pd(6.93145751953125e-1), x);
  x = _mm256_fnmadd_pd(n, _mm256_set1_pd(1.42860682030941723212e-6), x);

  const __m256d xx = _mm256_mul_pd(x, x);
  __m256d px = _mm256_set1_pd(1.26177193074810590878e-4);
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(3.02994407707441961300e-2));
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(9.99999999999999999910e-1));
  px = _mm256_mul_pd(px, x);
  __m256d qx = _mm256_set1_pd(3.00198505138664455042e-6);
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.52448340349684104192e-3));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.27265548208155028766e-1));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.0));

  // 2^n via direct exponent-field construction (|n| <= 1022, so the
  // int32 path is exact).
  const __m256i n64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return {px, qx, _mm256_castsi256_pd(pow2)};
}

/// (s + 1) Q + (s - 1) P, the shared denominator: s e^r + 1 times Q - P.
/// Rounding the P term and fusing the Q term (tanh's numerator too)
/// measured the tighter of the two orders.
inline __m256d exp_denominator(const ExpParts& e) {
  const __m256d one = _mm256_set1_pd(1.0);
  return _mm256_fmadd_pd(_mm256_add_pd(e.s, one), e.q,
                         _mm256_mul_pd(_mm256_sub_pd(e.s, one), e.p));
}

// sigma(x) = 1 / (1 + e^t), t = -x: (Q - P) / ((s + 1) Q + (s - 1) P).
// t below kMinLog rounds s + 1 to 1 and s - 1 to -1, so the ratio is
// exactly 1; t above kSigmoidMaxArg returns +0.  The constant goes first
// in min/max, which return their second operand on NaN, so NaN
// propagates.
inline __m256d vsigmoid_pd(__m256d x) {
  const __m256d t = _mm256_sub_pd(_mm256_setzero_pd(), x);
  const __m256d tc = _mm256_max_pd(
      _mm256_set1_pd(kMinLog),
      _mm256_min_pd(_mm256_set1_pd(kSigmoidMaxArg), t));
  const ExpParts e = vexp_parts(tc);
  const __m256d y = _mm256_div_pd(_mm256_sub_pd(e.q, e.p), exp_denominator(e));
  return _mm256_andnot_pd(
      _mm256_cmp_pd(t, _mm256_set1_pd(kSigmoidMaxArg), _CMP_GT_OQ), y);
}

void vsigmoid(double* y, const double* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, vsigmoid_pd(_mm256_loadu_pd(a + i)));
  if (i < n) {
    // Ragged tail goes through the same vector pipeline (padded), so a
    // value's result never depends on where the row boundary fell.
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = i; t < n; ++t) buf[t - i] = a[t];
    alignas(32) double out[4];
    _mm256_store_pd(out, vsigmoid_pd(_mm256_load_pd(buf)));
    for (std::size_t t = i; t < n; ++t) y[t] = out[t - i];
  }
}

// tanh a = (e^2a - 1) / (e^2a + 1) = ((s - 1) Q + (s + 1) P) / ((s + 1) Q
// + (s - 1) P) on a = min(22, |x|), with x's sign OR-ed back in (so
// tanh(-0) = -0).  tanh(22) rounds to 1, and there s - 1 and s + 1 round
// to s, so the ratio is exactly 1.  Near 0, n = 0 and the ratio is P / Q
// on r = 2a: no cancellation.  NaN propagates through min as in sigmoid.
inline __m256d vtanh_pd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d sign = _mm256_and_pd(x, sign_mask);
  const __m256d a =
      _mm256_min_pd(_mm256_set1_pd(22.0), _mm256_andnot_pd(sign_mask, x));
  const ExpParts e = vexp_parts(_mm256_add_pd(a, a));
  const __m256d num =
      _mm256_fmadd_pd(_mm256_sub_pd(e.s, one), e.q,
                      _mm256_mul_pd(_mm256_add_pd(e.s, one), e.p));
  return _mm256_or_pd(_mm256_div_pd(num, exp_denominator(e)), sign);
}

void vtanh(double* y, const double* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, vtanh_pd(_mm256_loadu_pd(a + i)));
  if (i < n) {
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = i; t < n; ++t) buf[t - i] = a[t];
    alignas(32) double out[4];
    _mm256_store_pd(out, vtanh_pd(_mm256_load_pd(buf)));
    for (std::size_t t = i; t < n; ++t) y[t] = out[t - i];
  }
}

// ---------------------------------------------------------------------------
// Fused GRU passes.
// ---------------------------------------------------------------------------

void gru_gates(double* z, double* r, double* rh, const double* a_zr,
               const double* h, std::size_t rows, std::size_t hid) {
  for (std::size_t row = 0; row < rows; ++row) {
    const double* azr = a_zr + row * 2 * hid;
    const double* hrow = h + row * hid;
    double* zrow = z + row * hid;
    double* rrow = r + row * hid;
    vsigmoid(zrow, azr, hid);
    vsigmoid(rrow, azr + hid, hid);
    vmul(rh + row * hid, rrow, hrow, hid);
  }
}

void gru_blend(double* nout, double* y, const double* an, const double* z,
               const double* h, std::size_t n) {
  // Blend uses mul+add (not FMA): identical IEEE ops to the scalar
  // reference, so given the same nout the blend is bitwise-stable.
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d nf = vtanh_pd(_mm256_loadu_pd(an + i));
    _mm256_storeu_pd(nout + i, nf);
    const __m256d zf = _mm256_loadu_pd(z + i);
    const __m256d hv = _mm256_loadu_pd(h + i);
    const __m256d blended = _mm256_add_pd(
        _mm256_mul_pd(_mm256_sub_pd(one, zf), nf), _mm256_mul_pd(zf, hv));
    _mm256_storeu_pd(y + i, blended);
  }
  for (; i < n; ++i) {
    vtanh(nout + i, an + i, 1);
    y[i] = (1.0 - z[i]) * nout[i] + z[i] * h[i];
  }
}

// ---------------------------------------------------------------------------
// gru_project + gru_step: one whole GRU step for narrow hidden widths
// (hid = 4V), in two parts.
//
// At hid <= 16 the composed step's matmuls have N = hid or 2*hid, so most
// columns miss the 2x16 tile and run one latency-bound FMA chain per
// 4-wide vector per row, and every pass round-trips its (R x hid) panel
// through memory.  Here a block of R rows keeps its z/r pre-activations
// (then its candidate pre-activations) in 2RV (then RV) registers for the
// whole reduction, and the gates and blend run on a few KiB of stack.
//
// gru_project computes the bias and x terms of all three pre-activations
// once per source row; gru_step starts each stepped row's accumulators
// from its u row and adds only the h terms.  The path RNN steps every
// link and node row many times per sweep, so the split takes the x terms,
// 3*in*hid FMAs per stepped row, out of the step.
//
// Bitwise contract: every cell goes through the exact operation sequence
// of matmul_acc + gru_gates + gru_blend on this backend — start from the
// bias, FMA the x terms p-ascending, then the h (z/r) or r.*h (candidate)
// terms p-ascending; vsigmoid_pd/vtanh_pd lane-wise (both are pure per
// lane, so vector position never matters); the blend's sub/mul/mul/add
// unfused.  Storing an accumulator to u after its x terms and loading it
// back in gru_step changes no bit.  The weights are read in place: row p
// of Wxz and of Wxr is the z and r half of row p of the stacked panel
// step_fused multiplies by.
// ---------------------------------------------------------------------------

// acc[g][r][v] += sum over p < k of rows[r][p] * w[g][p][4v .. 4v+3],
// p ascending, as FMA.  Every loop but p's has a compile-time trip count
// and is unrolled, so the accumulators live in registers; callers must
// also touch them only in such loops (a plain store loop), or GCC backs
// them with memory and stores all of them on every p.
template <std::size_t G, std::size_t V, std::size_t R>
inline void fma_terms(__m256d (&acc)[G][R][V], const double* const (&rows)[R],
                      const double* const (&w)[G], std::size_t k) {
  constexpr std::size_t kHid = 4 * V;
  for (std::size_t p = 0; p < k; ++p) {
    __m256d va[R];
    for (std::size_t r = 0; r < R; ++r)
      va[r] = _mm256_broadcast_sd(rows[r] + p);
    for (std::size_t g = 0; g < G; ++g)
      for (std::size_t v = 0; v < V; ++v) {
        const __m256d wv = _mm256_loadu_pd(w[g] + p * kHid + 4 * v);
        for (std::size_t r = 0; r < R; ++r)
          acc[g][r][v] = _mm256_fmadd_pd(va[r], wv, acc[g][r][v]);
      }
  }
}

/// acc[g][r] = row r's gate g: hid-wide slice g of u row rows[r].
template <std::size_t G, std::size_t V, std::size_t R>
inline void load_u(__m256d (&acc)[G][R][V], const double* const (&rows)[R],
                   std::size_t first_gate) {
  constexpr std::size_t kHid = 4 * V;
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t v = 0; v < V; ++v)
        acc[g][r][v] =
            _mm256_loadu_pd(rows[r] + (first_gate + g) * kHid + 4 * v);
}

/// dst[g][row0 + r] = acc[g][r].
template <std::size_t G, std::size_t V, std::size_t R, std::size_t N>
inline void store_acc(double (&dst)[G][N][4 * V], std::size_t row0,
                      const __m256d (&acc)[G][R][V]) {
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t v = 0; v < V; ++v)
        _mm256_store_pd(dst[g][row0 + r] + 4 * v, acc[g][r][v]);
}

/// acc[g][r] = bias[g] for every row r.
template <std::size_t G, std::size_t V, std::size_t R>
inline void set_bias(__m256d (&acc)[G][R][V], const double* const (&bias)[G]) {
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t v = 0; v < V; ++v) {
      const __m256d b = _mm256_loadu_pd(bias[g] + 4 * v);
      for (std::size_t r = 0; r < R; ++r) acc[g][r][v] = b;
    }
}

/// u rows[r] gates [first_gate, first_gate + G) = acc[g][r].
template <std::size_t G, std::size_t V, std::size_t R>
inline void store_u(double* const (&rows)[R], std::size_t first_gate,
                    const __m256d (&acc)[G][R][V]) {
  constexpr std::size_t kHid = 4 * V;
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t v = 0; v < V; ++v)
        _mm256_storeu_pd(rows[r] + (first_gate + g) * kHid + 4 * v,
                         acc[g][r][v]);
}

// One block of R source rows: u = [bz|br|bn] + x [Wxz|Wxr|Wxn], the z/r
// pair and then the candidate in registers, as gru_block keeps them.
template <std::size_t V, std::size_t R>
inline void project_block(double* u, const double* x,
                          const std::uint32_t* x_rows, std::size_t i0,
                          std::size_t in, const GruWeights& w) {
  constexpr std::size_t kHid = 4 * V;
  const double* xr[R];
  double* ur[R];
  for (std::size_t r = 0; r < R; ++r) {
    xr[r] = x + (x_rows != nullptr ? x_rows[i0 + r] : i0 + r) * in;
    ur[r] = u + (i0 + r) * 3 * kHid;
  }
  {
    __m256d acc[2][R][V];
    set_bias<2, V, R>(acc, {w.bz, w.br});
    fma_terms<2, V, R>(acc, xr, {w.wxz, w.wxr}, in);
    store_u<2, V, R>(ur, 0, acc);
  }
  {
    __m256d acc[1][R][V];
    set_bias<1, V, R>(acc, {w.bn});
    fma_terms<1, V, R>(acc, xr, {w.wxn}, in);
    store_u<1, V, R>(ur, 2, acc);
  }
}

template <std::size_t V, std::size_t R>
void project_rows(double* u, const double* x, const std::uint32_t* x_rows,
                  std::size_t rows, std::size_t in, const GruWeights& w) {
  std::size_t i = 0;
  for (; i + R <= rows; i += R) project_block<V, R>(u, x, x_rows, i, in, w);
  for (; i < rows; ++i) project_block<V, 1>(u, x, x_rows, i, in, w);
}

bool gru_project(double* u, const double* x, const std::uint32_t* x_rows,
                 std::size_t rows, std::size_t in, std::size_t hid,
                 const GruWeights& w) {
  // Rows per block as in gru_step.
  switch (hid) {
    case 4: project_rows<1, 4>(u, x, x_rows, rows, in, w); return true;
    case 8: project_rows<2, 2>(u, x, x_rows, rows, in, w); return true;
    case 12: project_rows<3, 2>(u, x, x_rows, rows, in, w); return true;
    case 16: project_rows<4, 1>(u, x, x_rows, rows, in, w); return true;
    default: return false;
  }
}

// One group of B blocks of R stepped rows.  Pre-activations: the u cell
// (bias and x terms), then the h terms (z/r) or r.*h terms (candidate) —
// the stacked [x|h] and [x|r.*h] reductions of step_fused, cell by cell.
// Each block of R rows keeps its accumulators in registers; the group
// runs each phase over all its blocks before the next phase, so the
// blocks' independent FMA chains and activations overlap.  kSave also
// copies z, r and n out for a taped step's backward; kSave = false
// compiles to the untaped step alone.
template <std::size_t V, std::size_t R, std::size_t B, bool kSave>
inline void gru_block(double* y, const std::uint32_t* y_rows, const double* u,
                      const std::uint32_t* u_rows, const double* h,
                      const std::uint32_t* h_rows, std::size_t i0,
                      const GruWeights& w, const GruActs& save) {
  constexpr std::size_t kHid = 4 * V, kRows = R * B;
  const double* ur[B][R];
  const double* hr[B][R];
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t r = 0; r < R; ++r) {
      const std::size_t i = i0 + b * R + r;
      ur[b][r] = u + (u_rows != nullptr ? u_rows[i] : i) * 3 * kHid;
      hr[b][r] = h + (h_rows != nullptr ? h_rows[i] : i) * kHid;
    }

  // Gates: zr[0] = z, zr[1] = r .* h.
  alignas(32) double zr[2][kRows][kHid];
  for (std::size_t b = 0; b < B; ++b) {
    __m256d acc[2][R][V];
    load_u<2, V, R>(acc, ur[b], 0);
    fma_terms<2, V, R>(acc, hr[b], {w.whz, w.whr}, kHid);
    store_acc<2, V, R, kRows>(zr, b * R, acc);
  }
  vsigmoid(zr[0][0], zr[0][0], 2 * kRows * kHid);
  if constexpr (kSave) {
    std::memcpy(save.z + i0 * kHid, zr[0][0], kRows * kHid * sizeof(double));
    std::memcpy(save.r + i0 * kHid, zr[1][0], kRows * kHid * sizeof(double));
  }
  const double* rh[B][R];
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t r = 0; r < R; ++r) {
      double* row = zr[1][b * R + r];
      vmul(row, row, hr[b][r], kHid);
      rh[b][r] = row;
    }

  // Candidate.
  alignas(32) double cand[1][kRows][kHid];
  for (std::size_t b = 0; b < B; ++b) {
    __m256d acc[1][R][V];
    load_u<1, V, R>(acc, ur[b], 2);
    fma_terms<1, V, R>(acc, rh[b], {w.whn}, kHid);
    store_acc<1, V, R, kRows>(cand, b * R, acc);
  }
  vtanh(cand[0][0], cand[0][0], kRows * kHid);
  if constexpr (kSave)
    std::memcpy(save.n + i0 * kHid, cand[0][0], kRows * kHid * sizeof(double));

  // Blend y = (1 - z) .* n + z .* h.  Row r's h is read in full before
  // its y is written, and no other row reads it, so y may be h itself.
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t r = 0; r < R; ++r) {
      const std::size_t k = b * R + r, i = i0 + k;
      double* yrow = y + (y_rows != nullptr ? y_rows[i] : i) * kHid;
      for (std::size_t j = 0; j < kHid; j += 4) {
        const __m256d zf = _mm256_load_pd(zr[0][k] + j);
        const __m256d hv = _mm256_loadu_pd(hr[b][r] + j);
        _mm256_storeu_pd(
            yrow + j,
            _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(one, zf),
                                        _mm256_load_pd(cand[0][k] + j)),
                          _mm256_mul_pd(zf, hv)));
      }
    }
}

/// The rows' index arrays (y_rows, u_rows, h_rows) of one gru_step call.
struct StepRows {
  const std::uint32_t* y;
  const std::uint32_t* u;
  const std::uint32_t* h;
};

template <std::size_t V, std::size_t R, bool kSave>
void gru_rows(double* y, const double* u, const double* h, StepRows idx,
              std::size_t rows, const GruWeights& w, const GruActs& save) {
  // Groups of 8 rows, then blocks of R, then single rows.
  constexpr std::size_t kB = 8 / R;
  std::size_t i = 0;
  for (; i + R * kB <= rows; i += R * kB)
    gru_block<V, R, kB, kSave>(y, idx.y, u, idx.u, h, idx.h, i, w, save);
  for (; i + R <= rows; i += R)
    gru_block<V, R, 1, kSave>(y, idx.y, u, idx.u, h, idx.h, i, w, save);
  for (; i < rows; ++i)
    gru_block<V, 1, 1, kSave>(y, idx.y, u, idx.u, h, idx.h, i, w, save);
}

template <std::size_t V, std::size_t R>
void gru_rows(double* y, const double* u, const double* h, StepRows idx,
              std::size_t rows, const GruWeights& w, const GruActs* save) {
  if (save != nullptr)
    gru_rows<V, R, true>(y, u, h, idx, rows, w, *save);
  else
    gru_rows<V, R, false>(y, u, h, idx, rows, w, GruActs{});
}

bool gru_step(double* y, const std::uint32_t* y_rows, const double* u,
              const std::uint32_t* u_rows, const double* h,
              const std::uint32_t* h_rows, std::size_t rows, std::size_t hid,
              const GruWeights& w, const GruActs* save) {
  const StepRows idx{y_rows, u_rows, h_rows};
  // Rows per block: enough independent FMA chains (2RV = 8..12) to cover
  // the FMA latency without spilling the 16 ymm registers.
  switch (hid) {
    case 4:
      gru_rows<1, 4>(y, u, h, idx, rows, w, save);
      return true;
    case 8:
      gru_rows<2, 2>(y, u, h, idx, rows, w, save);
      return true;
    case 12:
      gru_rows<3, 2>(y, u, h, idx, rows, w, save);
      return true;
    case 16:
      gru_rows<4, 1>(y, u, h, idx, rows, w, save);
      return true;
    default: return false;
  }
}

// ---------------------------------------------------------------------------
// gru_step_backward: the h side of one saved step's backward, hid = 4V.
//
// Each stepped row's pre-activation grad du = [daz | dar | dan] is added
// into a per-x-row buffer DU, so the caller runs the x side (dx, the Wx
// and bias grads) once per x row over DU with the matmul kernels instead
// of once per stepped row here.  The kernel never reads x.
//
// Bitwise contract: every cell the kernel writes goes through the
// operation sequence of gru.cpp's composed backward on this backend:
//   * the row's upstream grad is g, or carry + g when the caller passes
//     the sweep's carry (the sum the sweep formed before calling it);
//   * dan = g (1-z) (1-n n) and daz = g (h-n) z (1-z), unfused, left to
//     right; dar = drh h r (1-r) likewise;
//   * drh = 0 + dan Whn^T; dh = (dh + (0 + dzr [Whz|Whr]^T)) + (g z +
//     drh r), from 0 for a carry row, which the result then replaces.
//     Every dot runs in matmul_nt_acc's lane order: lane l sums the terms
//     p = l mod 4 in ascending p as FMA, then (l0 + l1) + (l2 + l3).  With
//     hid and the cell's input width multiples of 4 every h column of the
//     composed route's stacked [x|h] product is in a full 4-column group,
//     so none takes matmul_nt_acc's scalar tail; at other input widths its
//     last in mod 4 h columns do, and dh there agrees to rounding only;
//   * du rows: DU row += [daz | dar | dan], one add per cell, rows
//     ascending;
//   * Whz/Whr/Whn grads in matmul_tn_acc's per-cell order, one FMA per
//     row, rows ascending.  Whn accumulates onto its grad; Whz and Whr
//     into a fresh (hid x 2 hid) block (from zero) that is then added to
//     the grad, as the composed backward's stacked [x|h] panel does.
// The x side (dx, the Wx grads and the bias grads) is summed per x row
// first, so it differs from the per-stepped-row composed order by
// rounding only.
// Phase 1 walks the rows once with g, dan and dzr = [daz | dar] in
// registers, writes dh and the DU rows and stores dan, dzr and r.*h.
// Phase 2 sweeps the h-side weight grads with register accumulator
// tiles, one L1-sized block of rows at a time, reading h rows by index; a
// cell's FMA chain carries over from block to block through memory,
// unchanged.
// ---------------------------------------------------------------------------

/// The four dots a . b_q (q < 4) in matmul_nt_acc's lane order; row(q, u)
/// points at vector u of b_q.
template <std::size_t N, class Row>
inline __m256d nt_dot4(const __m256d (&a)[N], Row row) {
  __m256d acc[4];
  for (std::size_t q = 0; q < 4; ++q) acc[q] = _mm256_setzero_pd();
  for (std::size_t u = 0; u < N; ++u)
    for (std::size_t q = 0; q < 4; ++q)
      acc[q] = _mm256_fmadd_pd(a[u], _mm256_loadu_pd(row(q, u)), acc[q]);
  return hsum4(acc[0], acc[1], acc[2], acc[3]);
}

// Phase 1 for one row: gi, hi, zi, ri and ni are its rows of g, h, z, r
// and n, du its DU row and dh its dh row (null: no dh).  With `carry`,
// dh holds the carry, which is added to g and then replaced.  The
// scratch rows are dan (hid), dzr (2 hid) and rh (hid) wide.
template <std::size_t V>
inline void gru_backward_row(double* du, double* dh, bool carry,
                             const double* gi, const double* hi,
                             const double* zi, const double* ri,
                             const double* ni, const GruWeights& w,
                             double* dan_out, double* dzr_out,
                             double* rh_out) {
  constexpr std::size_t kHid = 4 * V;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();

  __m256d gv[V], dan[V], dzr[2 * V];
  for (std::size_t v = 0; v < V; ++v) {
    gv[v] = _mm256_loadu_pd(gi + 4 * v);
    if (carry) gv[v] = _mm256_add_pd(_mm256_loadu_pd(dh + 4 * v), gv[v]);
    const __m256d zv = _mm256_loadu_pd(zi + 4 * v);
    const __m256d nv = _mm256_loadu_pd(ni + 4 * v);
    const __m256d hv = _mm256_loadu_pd(hi + 4 * v);
    const __m256d omz = _mm256_sub_pd(one, zv);
    dan[v] = _mm256_mul_pd(_mm256_mul_pd(gv[v], omz),
                           _mm256_sub_pd(one, _mm256_mul_pd(nv, nv)));
    dzr[v] = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_mul_pd(gv[v], _mm256_sub_pd(hv, nv)), zv), omz);
  }

  // drh = 0 + dan Whn^T, then dar = drh h r (1-r).
  __m256d drh[V];
  for (std::size_t jg = 0; jg < V; ++jg)
    drh[jg] = _mm256_add_pd(
        zero, nt_dot4(dan, [&](std::size_t q, std::size_t u) {
          return w.whn + (4 * jg + q) * kHid + 4 * u;
        }));
  for (std::size_t v = 0; v < V; ++v) {
    const __m256d rv = _mm256_loadu_pd(ri + 4 * v);
    const __m256d hv = _mm256_loadu_pd(hi + 4 * v);
    dzr[V + v] = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_mul_pd(drh[v], hv), rv), _mm256_sub_pd(one, rv));
    _mm256_storeu_pd(rh_out + 4 * v, _mm256_mul_pd(rv, hv));
    _mm256_storeu_pd(dan_out + 4 * v, dan[v]);
  }
  for (std::size_t u = 0; u < 2 * V; ++u) {
    _mm256_storeu_pd(dzr_out + 4 * u, dzr[u]);
    _mm256_storeu_pd(du + 4 * u,
                     _mm256_add_pd(_mm256_loadu_pd(du + 4 * u), dzr[u]));
  }
  for (std::size_t v = 0; v < V; ++v)
    _mm256_storeu_pd(du + 2 * kHid + 4 * v,
                     _mm256_add_pd(_mm256_loadu_pd(du + 2 * kHid + 4 * v),
                                   dan[v]));

  if (dh == nullptr) return;
  for (std::size_t jg = 0; jg < V; ++jg) {
    const std::size_t j = 4 * jg;
    const __m256d s1 = nt_dot4(dzr, [&](std::size_t q, std::size_t u) {
      return u < V ? w.whz + (j + q) * kHid + 4 * u
                   : w.whr + (j + q) * kHid + 4 * (u - V);
    });
    const __m256d acc = _mm256_add_pd(
        carry ? zero : _mm256_loadu_pd(dh + j), _mm256_add_pd(zero, s1));
    const __m256d direct =
        _mm256_add_pd(_mm256_mul_pd(gv[jg], _mm256_loadu_pd(zi + j)),
                      _mm256_mul_pd(drh[jg], _mm256_loadu_pd(ri + j)));
    _mm256_storeu_pd(dh + j, _mm256_add_pd(acc, direct));
  }
}

// acc[t][u] += a[p][t] * panel[p][4u .. 4u+3] for p < rows, ascending,
// as FMA.
template <std::size_t U, std::size_t T>
inline void tn_terms(__m256d (&acc)[T][U], const double* const* a,
                     std::size_t t0, const double* panel, std::size_t rows) {
  for (std::size_t p = 0; p < rows; ++p) {
    __m256d va[T];
    for (std::size_t t = 0; t < T; ++t)
      va[t] = _mm256_broadcast_sd(a[p] + t0 + t);
    for (std::size_t u = 0; u < U; ++u) {
      const __m256d b = _mm256_loadu_pd(panel + p * 4 * U + 4 * u);
      for (std::size_t t = 0; t < T; ++t)
        acc[t][u] = _mm256_fmadd_pd(va[t], b, acc[t][u]);
    }
  }
}

// Phase 2 tile: gradient rows [t0, t0 + T) of a row-major grad with U
// vectors (4U doubles) per row; row t's multiplier column is column t of
// the multiplier rows a.  Starts from dst and stores back, so a sweep can
// resume where the previous block of panel rows left off.  The
// accumulators are touched only in plain loops (see fma_terms), so they
// stay in registers.
template <std::size_t U, std::size_t T>
inline void tn_grad_tile(double* dst, const double* const* a, std::size_t t0,
                         const double* panel, std::size_t rows) {
  double* tile = dst + t0 * 4 * U;
  __m256d acc[T][U];
  for (std::size_t t = 0; t < T; ++t)
    for (std::size_t u = 0; u < U; ++u)
      acc[t][u] = _mm256_loadu_pd(tile + t * 4 * U + 4 * u);
  tn_terms<U, T>(acc, a, t0, panel, rows);
  for (std::size_t t = 0; t < T; ++t)
    for (std::size_t u = 0; u < U; ++u)
      _mm256_storeu_pd(tile + t * 4 * U + 4 * u, acc[t][u]);
}

/// Gradient rows [0, count) in tiles, then singly: dst += a^T panel over
/// the block's `rows` multiplier rows a[p] (count wide).
template <std::size_t U>
void tn_grad_rows(double* dst, std::size_t count, const double* const* a,
                  const double* panel, std::size_t rows) {
  // Up to 12 accumulators, at most 4 broadcasts per panel row.
  constexpr std::size_t kT = U >= 12 ? 1 : (12 / U > 4 ? 4 : 12 / U);
  const std::size_t tiled = count - count % kT;
  for (std::size_t t = 0; t < tiled; t += kT)
    tn_grad_tile<U, kT>(dst, a, t, panel, rows);
  for (std::size_t t = tiled; t < count; ++t)
    tn_grad_tile<U, 1>(dst, a, t, panel, rows);
}

/// Panel rows per phase 2 block: the block's slices of dzr, dan, h and
/// r.*h stay in L1 (~15 KiB at hid = 12) while every gradient tile sweeps
/// them.
constexpr std::size_t kGradRowBlock = 32;

template <std::size_t V>
void gru_backward(double* du, const std::uint32_t* du_rows, double* dh,
                  const std::uint32_t* carry_rows, const double* g,
                  const double* h, const std::uint32_t* h_rows,
                  const double* z, const double* r, const double* n,
                  std::size_t rows, const GruWeights& w, const GruGrads& dw) {
  constexpr std::size_t kHid = 4 * V;
  static thread_local std::vector<double> scratch, zr;
  scratch.resize(rows * 4 * kHid);
  double* dan = scratch.data();
  double* dzr = dan + rows * kHid;
  double* rh = dzr + rows * 2 * kHid;
  const auto h_row = [&](std::size_t i) {
    return h + (h_rows != nullptr ? h_rows[i] : i) * kHid;
  };
  const bool carry = carry_rows != nullptr;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t o = i * kHid;
    double* dh_i =
        dh == nullptr ? nullptr
                      : dh + (carry ? carry_rows[i] : i) * kHid;
    gru_backward_row<V>(du + (du_rows != nullptr ? du_rows[i] : i) * 3 * kHid,
                        dh_i, carry, g + o, h_row(i), z + o, r + o, n + o, w,
                        dan + o, dzr + 2 * o, rh + o);
  }

  // The Whz/Whr grads as the fresh (hid x 2 hid) block of the composed
  // backward's stacked panel; Whn accumulates onto its grad in place.
  zr.assign(kHid * 2 * kHid, 0.0);
  const double* h_b[kGradRowBlock];
  const double* rh_b[kGradRowBlock];
  for (std::size_t p0 = 0; p0 < rows; p0 += kGradRowBlock) {
    const std::size_t pb =
        rows - p0 < kGradRowBlock ? rows - p0 : kGradRowBlock;
    for (std::size_t p = 0; p < pb; ++p) {
      h_b[p] = h_row(p0 + p);
      rh_b[p] = rh + (p0 + p) * kHid;
    }
    tn_grad_rows<2 * V>(zr.data(), kHid, h_b, dzr + p0 * 2 * kHid, pb);
    tn_grad_rows<V>(dw.whn, kHid, rh_b, dan + p0 * kHid, pb);
  }

  // grad += block, the composed backward's add_block.
  for (std::size_t i = 0; i < kHid; ++i)
    for (std::size_t c = 0; c < kHid; ++c) {
      dw.whz[i * kHid + c] += zr[i * 2 * kHid + c];
      dw.whr[i * kHid + c] += zr[i * 2 * kHid + kHid + c];
    }
}

bool gru_step_backward(double* du, const std::uint32_t* du_rows, double* dh,
                       const std::uint32_t* carry_rows, const double* g,
                       const double* h, const std::uint32_t* h_rows,
                       const double* z, const double* r, const double* n,
                       std::size_t rows, std::size_t hid, const GruWeights& w,
                       const GruGrads& dw) {
  switch (hid) {
    case 4:
      gru_backward<1>(du, du_rows, dh, carry_rows, g, h, h_rows, z, r, n,
                      rows, w, dw);
      return true;
    case 8:
      gru_backward<2>(du, du_rows, dh, carry_rows, g, h, h_rows, z, r, n,
                      rows, w, dw);
      return true;
    case 12:
      gru_backward<3>(du, du_rows, dh, carry_rows, g, h, h_rows, z, r, n,
                      rows, w, dw);
      return true;
    case 16:
      gru_backward<4>(du, du_rows, dh, carry_rows, g, h, h_rows, z, r, n,
                      rows, w, dw);
      return true;
    default: return false;
  }
}

}  // namespace
}  // namespace avx2

const Backend* simd_backend() noexcept {
  static const Backend backend = {
      "avx2+fma",
      &avx2::matmul_acc,
      &avx2::matmul_tn_acc,
      &avx2::matmul_nt_acc,
      &avx2::vadd,
      &avx2::vsub,
      &avx2::vmul,
      &avx2::vmacc,
      &avx2::vaxpy,
      &avx2::vaffine,
      &avx2::vrelu,
      &avx2::vsigmoid,
      &avx2::vtanh,
      &avx2::gru_gates,
      &avx2::gru_blend,
      &avx2::gru_project,
      &avx2::gru_step,
      &avx2::gru_step_backward,
  };
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported ? &backend : nullptr;
}

}  // namespace rnx::nn::kernels

#else  // non-x86: this translation unit contributes only the stub.

namespace rnx::nn::kernels {
const Backend* simd_backend() noexcept { return nullptr; }
}  // namespace rnx::nn::kernels

#endif
