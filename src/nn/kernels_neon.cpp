// NEON (aarch64) backend.  Unlike the AVX2 backend this one is fully
// bitwise-identical to the scalar reference: all vector arithmetic uses
// separate vmulq_f64 + vaddq_f64 (never FMLA), per-cell accumulation
// order matches the scalar loops exactly (including the matmul_nt_acc
// even/odd two-lane split, which maps 1:1 onto a float64x2 accumulator),
// and the transcendentals call libm per element.  aarch64 has no
// runtime-optional NEON — presence is a compile-time fact.
#include "nn/kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

namespace rnx::nn::kernels {
namespace neon {
namespace {

constexpr std::size_t kBlockI = 32;
constexpr std::size_t kBlockK = 128;

// Same blocked ikj structure and av == 0.0 skip as the scalar backend;
// the inner j loop runs two columns per step with mul+add.
void matmul_acc(double* c, const double* a, const double* b, std::size_t n,
                std::size_t k, std::size_t m) {
  for (std::size_t i0 = 0; i0 < n; i0 += kBlockI) {
    const std::size_t i1 = std::min(i0 + kBlockI, n);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t p1 = std::min(p0 + kBlockK, k);
      for (std::size_t i = i0; i < i1; ++i) {
        double* crow = c + i * m;
        const double* arow = a + i * k;
        for (std::size_t p = p0; p < p1; ++p) {
          const double av = arow[p];
          if (av == 0.0) continue;
          const double* brow = b + p * m;
          const float64x2_t va = vdupq_n_f64(av);
          std::size_t j = 0;
          for (; j + 2 <= m; j += 2)
            vst1q_f64(crow + j,
                      vaddq_f64(vld1q_f64(crow + j),
                                vmulq_f64(va, vld1q_f64(brow + j))));
          for (; j < m; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void matmul_tn_acc(double* c, const double* a, const double* b, std::size_t n,
                   std::size_t k, std::size_t m) {
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a + p * n;
    const double* brow = b + p * m;
    for (std::size_t i = 0; i < n; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* crow = c + i * m;
      const float64x2_t va = vdupq_n_f64(av);
      std::size_t j = 0;
      for (; j + 2 <= m; j += 2)
        vst1q_f64(crow + j, vaddq_f64(vld1q_f64(crow + j),
                                      vmulq_f64(va, vld1q_f64(brow + j))));
      for (; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_nt_acc(double* c, const double* a, const double* b, std::size_t n,
                   std::size_t k, std::size_t m) {
  const std::size_t k2 = k - k % 2;
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      const double* brow = b + j * k;
      // Lane 0 = scalar s0 (even p), lane 1 = scalar s1 (odd p).
      float64x2_t acc = vdupq_n_f64(0.0);
      for (std::size_t p = 0; p < k2; p += 2)
        acc = vaddq_f64(acc, vmulq_f64(vld1q_f64(arow + p),
                                       vld1q_f64(brow + p)));
      double s0 = vgetq_lane_f64(acc, 0);
      const double s1 = vgetq_lane_f64(acc, 1);
      if (k2 < k) s0 += arow[k2] * brow[k2];
      crow[j] += s0 + s1;
    }
  }
}

void vadd(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

void vsub(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(y + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) y[i] = a[i] - b[i];
}

void vmul(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(y + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) y[i] = a[i] * b[i];
}

void vmacc(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(y + i),
                        vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i))));
  for (; i < n; ++i) y[i] += a[i] * b[i];
}

void vaxpy(double* y, double alpha, const double* x, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void vaffine(double* y, const double* a, double alpha, double beta,
             std::size_t n) {
  const float64x2_t valpha = vdupq_n_f64(alpha);
  const float64x2_t vbeta = vdupq_n_f64(beta);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(y + i,
              vaddq_f64(vmulq_f64(valpha, vld1q_f64(a + i)), vbeta));
  for (; i < n; ++i) y[i] = alpha * a[i] + beta;
}

void vrelu(double* y, const double* a, std::size_t n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(a + i);
    const uint64x2_t gt = vcgtq_f64(v, zero);
    vst1q_f64(y + i, vreinterpretq_f64_u64(vandq_u64(
                         vreinterpretq_u64_f64(v), gt)));
  }
  for (; i < n; ++i) y[i] = a[i] > 0.0 ? a[i] : 0.0;
}

// Transcendentals stay on libm so this backend is bitwise-stable; the
// vector win on aarch64 comes from the linear kernels and matmuls.
void vsigmoid(double* y, const double* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = 1.0 / (1.0 + std::exp(-a[i]));
}

void vtanh(double* y, const double* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(a[i]);
}

void gru_gates(double* z, double* r, double* rh, const double* a_zr,
               const double* h, std::size_t rows, std::size_t hid) {
  for (std::size_t row = 0; row < rows; ++row) {
    const double* azr = a_zr + row * 2 * hid;
    vsigmoid(z + row * hid, azr, hid);
    vsigmoid(r + row * hid, azr + hid, hid);
    vmul(rh + row * hid, r + row * hid, h + row * hid, hid);
  }
}

void gru_blend(double* nout, double* y, const double* an, const double* z,
               const double* h, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    nout[i] = std::tanh(an[i]);
    y[i] = (1.0 - z[i]) * nout[i] + z[i] * h[i];
  }
}

}  // namespace
}  // namespace neon

const Backend* detail::neon_backend() noexcept {
  static const Backend backend = {
      Isa::kNeon,
      "neon",
      &neon::matmul_acc,
      &neon::matmul_tn_acc,
      &neon::matmul_nt_acc,
      &neon::vadd,
      &neon::vsub,
      &neon::vmul,
      &neon::vmacc,
      &neon::vaxpy,
      &neon::vaffine,
      &neon::vrelu,
      &neon::vsigmoid,
      &neon::vtanh,
      &neon::gru_gates,
      &neon::gru_blend,
      nullptr,  // gru_step: falls back to the composed path
  };
  return &backend;
}

}  // namespace rnx::nn::kernels

#else  // non-aarch64: stub only.

namespace rnx::nn::kernels {
const Backend* detail::neon_backend() noexcept { return nullptr; }
}  // namespace rnx::nn::kernels

#endif
