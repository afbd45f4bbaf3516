// AVX-512 table: the path-GRU step kernel (gru_step) and vsigmoid /
// vtanh at 8 doubles per instruction.  Compiled with -mavx512f
// -mavx512dq -mavx512vl -mavx2 -mfma -ffp-contract=off (see
// CMakeLists.txt); every other entry of the table, gru_project included,
// is the AVX2 one (kernels.cpp composes the table, and only when the CPU
// and OS support AVX-512F/DQ/VL).
//
// Bitwise contract vs the AVX2 table (tests/nn_kernels_cross_table_test.cpp):
// every output cell goes through the AVX2 kernel's exact operation
// sequence, only 8 lanes at a time instead of 4:
//   * gru_step: the u cell, then the h terms (z, r) or the r.*h terms
//     (candidate) p-ascending as FMA; sigmoid and tanh lane by lane
//     (kernels_vmath.hpp, the same formulas the AVX2 table instantiates
//     at 4 lanes); r.*h one mul; the blend's sub/mul/mul/add unfused;
//   * vsigmoid / vtanh: the shared formulas, lane by lane.  2^n comes
//     from vscalefpd instead of the exponent field, which is the same
//     double for every integer n in [-1022, 1022]; only a NaN lane's n
//     differs, and that lane's output is NaN either way.
// So the AVX-512 table changes no bit of any output the AVX2 table
// produces (a NaN's payload aside).
//
// Linkage rule: everything this file defines is in namespace
// avx512 (the kernels in its unnamed namespace), and it instantiates no
// template from a header other translation units also use (no std::
// containers or algorithms).  An inline entity with external linkage
// would be emitted here with AVX-512 instructions as well as in other
// files, and the linker could keep this copy for a caller on a CPU
// without AVX-512.  CI checks that every function using AVX-512 registers
// in the test binary is one of this file's.
#include "nn/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

// GCC 12's AVX-512 headers make the "undefined" source operand of
// intrinsics such as _mm512_min_pd by self-initialisation (__Y = __Y),
// and -Wuninitialized reports it wherever one is inlined; GCC 13's
// headers no longer do.  The pragma must precede the header.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "nn/kernels_vmath.hpp"

namespace rnx::nn::kernels::avx512 {
namespace {

/// kernels_vmath.hpp's vector ops at 8 doubles.
struct Ops512 {
  using V = __m512d;
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V div(V a, V b) { return _mm512_div_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V fnmadd(V a, V b, V c) { return _mm512_fnmadd_pd(a, b, c); }
  static V min(V a, V b) { return _mm512_min_pd(a, b); }
  static V max(V a, V b) { return _mm512_max_pd(a, b); }
  static V round(V x) {
    return _mm512_roundscale_pd(x,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static V and_(V a, V b) { return _mm512_and_pd(a, b); }
  static V andnot(V a, V b) { return _mm512_andnot_pd(a, b); }
  static V or_(V a, V b) { return _mm512_or_pd(a, b); }
  static V zero_where_greater(V y, V t, V c) {
    return _mm512_maskz_mov_pd(
        static_cast<__mmask8>(~_mm512_cmp_pd_mask(t, c, _CMP_GT_OQ)), y);
  }
  // 1 * 2^floor(n): exact, and equal to the AVX2 exponent-field value, for
  // every integer n in [-1022, 1022].
  static V pow2(V n) { return _mm512_scalef_pd(_mm512_set1_pd(1.0), n); }
};

inline __m512d vsigmoid_pd(__m512d x) { return vsigmoid_v<Ops512>(x); }
inline __m512d vtanh_pd(__m512d x) { return vtanh_v<Ops512>(x); }

/// The low `n` lanes (n < 8).
inline __mmask8 low_lanes(std::size_t n) {
  return static_cast<__mmask8>((1u << n) - 1u);
}

// The ragged tail runs the same lane-pure pipeline on a masked load
// (zeros in the unused lanes), so a value's result never depends on
// where it sits.
void vsigmoid(double* y, const double* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(y + i, vsigmoid_pd(_mm512_loadu_pd(a + i)));
  if (i < n) {
    const __mmask8 m = low_lanes(n - i);
    _mm512_mask_storeu_pd(y + i, m,
                          vsigmoid_pd(_mm512_maskz_loadu_pd(m, a + i)));
  }
}

void vtanh(double* y, const double* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(y + i, vtanh_pd(_mm512_loadu_pd(a + i)));
  if (i < n) {
    const __mmask8 m = low_lanes(n - i);
    _mm512_mask_storeu_pd(y + i, m,
                          vtanh_pd(_mm512_maskz_loadu_pd(m, a + i)));
  }
}

// ---------------------------------------------------------------------------
// gru_step at 8 lanes (kernels_avx2.cpp explains the split and the
// contract; here only the register layout differs).
//
// A unit is K rows whose W-wide segments sit side by side in kNV = K W / 8
// zmm registers: one row's [z | r] (W = 2H, K = 1) or a pair of rows'
// candidates (W = H, K = 2).  W is a multiple of 4, so each 4-lane half
// of a register lies in one row; a register whose halves lie in two rows
// is loaded by halves, and its multiplier is the two rows' broadcasts
// blended.  The weights a register multiplies are the same columns for
// every p, so the step packs them once per call into a panel of K W
// doubles per p ([Whz | Whr] and [Whn | Whn]).
// ---------------------------------------------------------------------------

template <std::size_t W, std::size_t K>
struct Unit {
  static_assert(W % 4 == 0 && (W * K) % 8 == 0, "whole 4-lane halves");
  static constexpr std::size_t kK = K;
  static constexpr std::size_t kNV = W * K / 8;
  /// Row and column of half s of register v.
  static constexpr std::size_t row(std::size_t v, std::size_t s) {
    return (8 * v + 4 * s) / W;
  }
  static constexpr std::size_t col(std::size_t v, std::size_t s) {
    return (8 * v + 4 * s) % W;
  }
  /// Whether register v lies in one row.
  static constexpr bool whole(std::size_t v) { return row(v, 0) == row(v, 1); }
};

/// Register v of a unit whose row k starts at rows[k].
template <class U>
inline __m512d load_v(const double* const (&rows)[U::kK], std::size_t v) {
  const double* lo = rows[U::row(v, 0)] + U::col(v, 0);
  if (U::whole(v)) return _mm512_loadu_pd(lo);
  return _mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_loadu_pd(lo)),
                            _mm256_loadu_pd(rows[U::row(v, 1)] + U::col(v, 1)),
                            1);
}

/// The multiplier of register v: the broadcast of its row's term, or the
/// two rows' broadcasts blended.
template <class U>
inline __m512d term_v(const __m512d (&b)[U::kK], std::size_t v) {
  if (U::whole(v)) return b[U::row(v, 0)];
  return _mm512_mask_blend_pd(0xF0, b[U::row(v, 0)], b[U::row(v, 1)]);
}

// acc[u][v] += sum over p < k of src[u][row][p] * panel register v of
// reduction row p (at panel + p * 8 kNV + 8 v), p ascending, as FMA.
// Every loop but p's has a compile-time trip count and is unrolled, so
// the accumulators live in registers (see fma_terms in kernels_avx2.cpp).
template <class U, std::size_t R>
inline void fma_terms(__m512d (&acc)[R][U::kNV],
                      const double* const (&src)[R][U::kK],
                      const double* panel, std::size_t k) {
  for (std::size_t p = 0; p < k; ++p) {
    __m512d w[U::kNV];
    for (std::size_t v = 0; v < U::kNV; ++v)
      w[v] = _mm512_loadu_pd(panel + (p * U::kNV + v) * 8);
    for (std::size_t u = 0; u < R; ++u) {
      __m512d b[U::kK];
      for (std::size_t k2 = 0; k2 < U::kK; ++k2)
        b[k2] = _mm512_set1_pd(src[u][k2][p]);
      for (std::size_t v = 0; v < U::kNV; ++v)
        acc[u][v] = _mm512_fmadd_pd(term_v<U>(b, v), w[v], acc[u][v]);
    }
  }
}

/// acc[u] = the unit whose row k starts at rows[u][k].
template <class U, std::size_t R>
inline void load_units(__m512d (&acc)[R][U::kNV],
                       const double* const (&rows)[R][U::kK]) {
  for (std::size_t u = 0; u < R; ++u)
    for (std::size_t v = 0; v < U::kNV; ++v) acc[u][v] = load_v<U>(rows[u], v);
}

// ---- gru_step --------------------------------------------------------------

/// Rows per group: each phase runs over the whole group before the next,
/// so the blocks' FMA chains and activations overlap.
constexpr std::size_t kGroup = 16;

/// The step's packed panels: row p of [Whz | Whr] and of [Whn | Whn].
template <std::size_t H>
struct StepPanels {
  alignas(64) double zr[H * 2 * H];
  alignas(64) double n[H * 2 * H];

  explicit StepPanels(const GruWeights& w) {
    for (std::size_t p = 0; p < H; ++p) {
      std::memcpy(zr + p * 2 * H, w.whz + p * H, H * sizeof(double));
      std::memcpy(zr + p * 2 * H + H, w.whr + p * H, H * sizeof(double));
      std::memcpy(n + p * 2 * H, w.whn + p * H, H * sizeof(double));
      std::memcpy(n + p * 2 * H + H, w.whn + p * H, H * sizeof(double));
    }
  }
};

/// The rows' index arrays (y_rows, u_rows, h_rows) of one gru_step call.
struct StepRows {
  const std::uint32_t* y;
  const std::uint32_t* u;
  const std::uint32_t* h;
};

/// y = (1 - z) .* n + z .* h over one row of H, unfused.
template <std::size_t H>
inline void blend_row(double* y, const double* z, const double* n,
                      const double* h) {
  const __m512d one = _mm512_set1_pd(1.0);
  std::size_t c = 0;
  for (; c + 8 <= H; c += 8) {
    const __m512d zf = _mm512_loadu_pd(z + c);
    _mm512_storeu_pd(
        y + c, _mm512_add_pd(_mm512_mul_pd(_mm512_sub_pd(one, zf),
                                           _mm512_loadu_pd(n + c)),
                             _mm512_mul_pd(zf, _mm512_loadu_pd(h + c))));
  }
  if (c < H) {  // H % 8 == 4
    const __m256d one4 = _mm256_set1_pd(1.0);
    const __m256d zf = _mm256_loadu_pd(z + c);
    _mm256_storeu_pd(
        y + c, _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(one4, zf),
                                           _mm256_loadu_pd(n + c)),
                             _mm256_mul_pd(zf, _mm256_loadu_pd(h + c))));
  }
}

// One group of `count` (1..kGroup) stepped rows from row i0.  Rows past
// `count` up to the phase's block size read row count - 1's inputs and
// are neither stored nor saved.  RZ rows per z/r block, RN row pairs per
// candidate block.
template <std::size_t H, std::size_t RZ, std::size_t RN, bool kSave>
inline void step_group(double* y, const double* u, const double* h,
                       StepRows idx, std::size_t i0, std::size_t count,
                       const StepPanels<H>& panels, const GruActs& save) {
  using ZR = Unit<2 * H, 1>;
  using NU = Unit<H, 2>;
  static_assert(kGroup % RZ == 0 && kGroup % (2 * RN) == 0, "whole blocks");
  const double* ur[kGroup];
  const double* hr[kGroup];
  for (std::size_t j = 0; j < kGroup; ++j) {
    const std::size_t i = i0 + (j < count ? j : count - 1);
    ur[j] = u + (idx.u != nullptr ? idx.u[i] : i) * 3 * H;
    hr[j] = h + (idx.h != nullptr ? idx.h[i] : i) * H;
  }

  // Gates: zr[j] = [z | r] of row j, then [z | r .* h].
  alignas(64) double zr[kGroup][2 * H];
  for (std::size_t j0 = 0; j0 < count; j0 += RZ) {
    const double* src[RZ][1];
    const double* hs[RZ][1];
    for (std::size_t r = 0; r < RZ; ++r) {
      src[r][0] = ur[j0 + r];
      hs[r][0] = hr[j0 + r];
    }
    __m512d acc[RZ][ZR::kNV];
    load_units<ZR, RZ>(acc, src);
    fma_terms<ZR, RZ>(acc, hs, panels.zr, H);
    for (std::size_t r = 0; r < RZ; ++r)
      for (std::size_t v = 0; v < ZR::kNV; ++v)
        _mm512_storeu_pd(zr[j0 + r] + 8 * v, acc[r][v]);
  }
  vsigmoid(zr[0], zr[0], count * 2 * H);
  if constexpr (kSave)
    for (std::size_t j = 0; j < count; ++j) {
      std::memcpy(save.z + (i0 + j) * H, zr[j], H * sizeof(double));
      std::memcpy(save.r + (i0 + j) * H, zr[j] + H, H * sizeof(double));
    }
  const double* rh[kGroup];
  for (std::size_t j = 0; j < kGroup; ++j) {
    if (j < count) {
      double* row = zr[j] + H;
      std::size_t c = 0;
      for (; c + 8 <= H; c += 8)
        _mm512_storeu_pd(row + c, _mm512_mul_pd(_mm512_loadu_pd(row + c),
                                               _mm512_loadu_pd(hr[j] + c)));
      if (c < H)
        _mm256_storeu_pd(row + c, _mm256_mul_pd(_mm256_loadu_pd(row + c),
                                               _mm256_loadu_pd(hr[j] + c)));
    }
    rh[j] = zr[j < count ? j : count - 1] + H;
  }

  // Candidate, on row pairs: cand rows are contiguous, so a pair's unit is
  // 2H contiguous doubles.
  alignas(64) double cand[kGroup][H];
  for (std::size_t j0 = 0; j0 < count; j0 += 2 * RN) {
    const double* src[RN][2];
    const double* rs[RN][2];
    for (std::size_t r = 0; r < RN; ++r)
      for (std::size_t k = 0; k < 2; ++k) {
        src[r][k] = ur[j0 + 2 * r + k] + 2 * H;
        rs[r][k] = rh[j0 + 2 * r + k];
      }
    __m512d acc[RN][NU::kNV];
    load_units<NU, RN>(acc, src);
    fma_terms<NU, RN>(acc, rs, panels.n, H);
    for (std::size_t r = 0; r < RN; ++r)
      for (std::size_t v = 0; v < NU::kNV; ++v)
        _mm512_storeu_pd(cand[j0 + 2 * r] + 8 * v, acc[r][v]);
  }
  // Whole row pairs, so the length is a multiple of 8.
  vtanh(cand[0], cand[0], (count + 1) / 2 * 2 * H);
  if constexpr (kSave)
    for (std::size_t j = 0; j < count; ++j)
      std::memcpy(save.n + (i0 + j) * H, cand[j], H * sizeof(double));

  // Blend.  Row j's h is read in full before its y is written, and no
  // other row reads it, so y may be h itself.
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = i0 + j;
    blend_row<H>(y + (idx.y != nullptr ? idx.y[i] : i) * H, zr[j], cand[j],
                 hr[j]);
  }
}

template <std::size_t H, std::size_t RZ, std::size_t RN, bool kSave>
void step_rows(double* y, const double* u, const double* h, StepRows idx,
               std::size_t rows, const GruWeights& w, const GruActs& save) {
  const StepPanels<H> panels(w);
  for (std::size_t i = 0; i < rows; i += kGroup)
    step_group<H, RZ, RN, kSave>(y, u, h, idx, i,
                                 rows - i < kGroup ? rows - i : kGroup, panels,
                                 save);
}

template <std::size_t H, std::size_t RZ, std::size_t RN>
void step_rows(double* y, const double* u, const double* h, StepRows idx,
               std::size_t rows, const GruWeights& w, const GruActs* save) {
  if (rows == 0) return;
  if (save != nullptr)
    step_rows<H, RZ, RN, true>(y, u, h, idx, rows, w, *save);
  else
    step_rows<H, RZ, RN, false>(y, u, h, idx, rows, w, GruActs{});
}

bool gru_step(double* y, const std::uint32_t* y_rows, const double* u,
              const std::uint32_t* u_rows, const double* h,
              const std::uint32_t* h_rows, std::size_t rows, std::size_t hid,
              const GruWeights& w, const GruActs* save) {
  const StepRows idx{y_rows, u_rows, h_rows};
  // Rows per z/r block and row pairs per candidate block: 12-16
  // accumulators (H / 4 per z/r row, H / 4 per candidate pair).
  switch (hid) {
    case 4: step_rows<4, 16, 8>(y, u, h, idx, rows, w, save); return true;
    case 8: step_rows<8, 8, 8>(y, u, h, idx, rows, w, save); return true;
    case 12: step_rows<12, 4, 4>(y, u, h, idx, rows, w, save); return true;
    case 16: step_rows<16, 4, 4>(y, u, h, idx, rows, w, save); return true;
    default: return false;
  }
}

}  // namespace

Backend table(const Backend& avx2) noexcept {
  Backend b = avx2;
  b.name = "avx512";
  b.vsigmoid = &vsigmoid;
  b.vtanh = &vtanh;
  b.gru_step = &gru_step;
  return b;
}

}  // namespace rnx::nn::kernels::avx512

#endif
