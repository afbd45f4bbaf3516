#include "nn/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rnx::nn::kernels {

// ---------------------------------------------------------------------------
// Scalar reference backend.  These are the pre-backend-layer kernels moved
// here verbatim (tensor.cpp blocked matmuls, ops.cpp elementwise loops,
// gru.cpp gate/blend passes) and compiled with the default target flags, so
// their results are bitwise-identical to the pre-SIMD tree.  Every other
// backend is pinned against this one (tests/nn_kernels_test.cpp).
// ---------------------------------------------------------------------------
namespace scalar {
namespace {

// ikj-ordered, cache-blocked over the reduction dimension so a panel of B
// stays in L1/L2 while a block of A's rows streams over it.  Per (i, j)
// cell the additions happen in ascending p order — the accumulation-order
// contract SIMD backends must preserve (modulo documented FMA contraction).
constexpr std::size_t kBlockI = 32;   // rows of A per panel pass
constexpr std::size_t kBlockK = 128;  // reduction slice: B panel rows

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
          for (std::size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
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
      for (std::size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_nt_acc(double* c, const double* a, const double* b, std::size_t n,
                   std::size_t k, std::size_t m) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      const double* brow = b + j * k;
      // Two-lane dot: breaks the serial FMA dependency chain.  (Changes
      // the summation order vs a single accumulator, deterministically.)
      double s0 = 0.0, s1 = 0.0;
      std::size_t p = 0;
      for (; p + 1 < k; p += 2) {
        s0 += arow[p] * brow[p];
        s1 += arow[p + 1] * brow[p + 1];
      }
      if (p < k) s0 += arow[p] * brow[p];
      crow[j] += s0 + s1;
    }
  }
}

void vadd(double* y, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

void vsub(double* y, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a[i] - b[i];
}

void vmul(double* y, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
}

void vmacc(double* y, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a[i] * b[i];
}

void vaxpy(double* y, double alpha, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void vaffine(double* y, const double* a, double alpha, double beta,
             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = alpha * a[i] + beta;
}

void vrelu(double* y, const double* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a[i] > 0.0 ? a[i] : 0.0;
}

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
    const double* hrow = h + row * hid;
    double* zrow = z + row * hid;
    double* rrow = r + row * hid;
    double* rhrow = rh + row * hid;
    for (std::size_t c = 0; c < hid; ++c) {
      zrow[c] = 1.0 / (1.0 + std::exp(-azr[c]));
      rrow[c] = 1.0 / (1.0 + std::exp(-azr[hid + c]));
      rhrow[c] = rrow[c] * hrow[c];
    }
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
}  // namespace scalar

const Backend& scalar_backend() noexcept {
  static const Backend backend = {
      "scalar",
      &scalar::matmul_acc,
      &scalar::matmul_tn_acc,
      &scalar::matmul_nt_acc,
      &scalar::vadd,
      &scalar::vsub,
      &scalar::vmul,
      &scalar::vmacc,
      &scalar::vaxpy,
      &scalar::vaffine,
      &scalar::vrelu,
      &scalar::vsigmoid,
      &scalar::vtanh,
      &scalar::gru_gates,
      &scalar::gru_blend,
      nullptr,  // gru_project: the composed path is the reference
      nullptr,  // gru_step: likewise
      nullptr,  // gru_step_backward: likewise
  };
  return backend;
}

// ---------------------------------------------------------------------------
// Dispatch: resolved once per process, overridable per thread for tests.
// ---------------------------------------------------------------------------
namespace {

struct Dispatch {
  const Backend* backend;
  std::string reason;
};

const Dispatch& resolve() {
  // Magic static: first caller resolves, throws propagate to them; later
  // callers see the settled choice.
  static const Dispatch dispatch = [] {
    const char* env = std::getenv("RNX_SIMD");
    const std::string mode = env ? env : "";
    if (mode == "scalar")
      return Dispatch{&scalar_backend(), "forced by RNX_SIMD=scalar"};
    if (!mode.empty() && mode != "native")
      throw std::runtime_error("RNX_SIMD: unknown value \"" + mode +
                               "\" (expected scalar|native)");
    const char* how = mode.empty() ? "auto-detected" : "RNX_SIMD=native";
    if (const Backend* simd = simd_backend())
      return Dispatch{simd, std::string(how) + ": cpu supports " + simd->name};
    return Dispatch{&scalar_backend(),
                    std::string(how) + ": no simd backend for this cpu"};
  }();
  return dispatch;
}

thread_local const Backend* t_override = nullptr;

}  // namespace

const Backend& active() {
  if (t_override != nullptr) return *t_override;
  return *resolve().backend;
}

const char* dispatch_reason() { return resolve().reason.c_str(); }

ScopedBackendOverride::ScopedBackendOverride(const Backend& backend) noexcept
    : prev_(t_override) {
  t_override = &backend;
}

ScopedBackendOverride::~ScopedBackendOverride() { t_override = prev_; }

}  // namespace rnx::nn::kernels
