// Scalar-vs-SIMD parity suite for the runtime-dispatched kernel
// backends (DESIGN.md §K).  Pins the three-tier contract:
//
//   * linear elementwise kernels (vadd/vsub/vmul/vmacc/vaxpy/vaffine/
//     vrelu) are BITWISE identical across backends — same per-element
//     IEEE mul/add sequence, no FMA contraction;
//   * the matmul family keeps the per-cell ascending-p accumulation
//     order but contracts mul+add into FMA, so it is pinned to a tight
//     relative bound instead;
//   * vsigmoid/vtanh are one ratio each of shared polynomial exp parts
//     on SIMD backends (libm on scalar), pinned to <= 8 ulp of the
//     scalar backend for |x| <= 700 (measured <= 4), exact saturation
//     at +-inf and +-750, NaN propagation and tanh(-0) = -0.
//
// Shapes deliberately cover the ragged cases the register tiles must
// tail-handle (1-wide, odd rows, column tails, empty) and matmul shapes
// on both sides of the B-panel packing threshold, so packed and
// unpacked code paths are both exercised.  Gradcheck re-runs under an
// explicit SIMD pin so backward passes are verified against central
// differences on the vector kernels, not just on the scalar reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/gradcheck.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace rnx::nn;
using kernels::Backend;
using kernels::ScopedBackendOverride;
using rnx::util::RngStream;

std::vector<double> rand_vec(std::size_t n, std::uint64_t seed, double lo = -4.0,
                             double hi = 4.0) {
  RngStream rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

// Lengths that hit every vector-width tail: empty, sub-lane, one lane,
// lane+tail, multi-lane, and the unrolled-by-2 boundary cases.
const std::vector<std::size_t> kLens = {0,  1,  2,  3,  4,  5,  7, 8,
                                        9,  15, 16, 17, 31, 33, 100};

// ---- linear elementwise kernels: bitwise across backends -------------------

TEST(NnKernelsParity, LinearElementwiseBitwise) {
  const Backend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "scalar-only host";
  const Backend& scalar = kernels::scalar_backend();

  for (const std::size_t n : kLens) {
    const std::vector<double> a = rand_vec(n, 100 + n);
    const std::vector<double> b = rand_vec(n, 200 + n);
    const std::vector<double> y0 = rand_vec(n, 300 + n);

    const auto check = [&](const char* name, auto&& call) {
      std::vector<double> ys = y0, yv = y0;
      call(scalar, ys);
      call(*simd, yv);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(ys[i], yv[i]) << name << " n=" << n << " i=" << i;
    };

    check("vadd", [&](const Backend& k, std::vector<double>& y) {
      k.vadd(y.data(), a.data(), b.data(), n);
    });
    check("vsub", [&](const Backend& k, std::vector<double>& y) {
      k.vsub(y.data(), a.data(), b.data(), n);
    });
    check("vmul", [&](const Backend& k, std::vector<double>& y) {
      k.vmul(y.data(), a.data(), b.data(), n);
    });
    check("vmacc", [&](const Backend& k, std::vector<double>& y) {
      k.vmacc(y.data(), a.data(), b.data(), n);
    });
    check("vaxpy", [&](const Backend& k, std::vector<double>& y) {
      k.vaxpy(y.data(), 1.7, a.data(), n);
    });
    check("vaffine", [&](const Backend& k, std::vector<double>& y) {
      k.vaffine(y.data(), a.data(), -0.9, 0.3, n);
    });
    check("vrelu", [&](const Backend& k, std::vector<double>& y) {
      k.vrelu(y.data(), a.data(), n);
    });
  }
}

// ---- matmul family: per-cell order kept, FMA contraction allowed -----------

struct MmShape {
  std::size_t n, k, m;
};

// Both sides of the 16 KiB B-panel packing threshold (k*m*8 bytes,
// n >= 8), plus every tail case: 1-wide, 1-tall, odd rows, sub-16 and
// 16+tail columns, empty operands.
const std::vector<MmShape> kMmShapes = {
    {0, 5, 7},    {5, 0, 7},   {5, 7, 0},   {1, 1, 1},   {1, 8, 1},
    {3, 5, 2},    {2, 3, 16},  {5, 4, 17},  {7, 16, 16}, {8, 16, 33},
    {9, 40, 48},                      // k*m*8 = 15360 < 16 KiB: unpacked
    {9, 40, 52},                      // k*m*8 = 16640 > 16 KiB: packed
    {7, 80, 52},                      // over threshold but n < 8: unpacked
    {32, 64, 64},                     // packed, even rows, aligned columns
    {33, 64, 70},                     // packed, odd rows + column tail
    {552, 16, 16},                    // the RouteNet hot shape
};

double max_rel_diff(const std::vector<double>& x, const std::vector<double>& y,
                    double floor = 1.0) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double denom =
        std::max({std::abs(x[i]), std::abs(y[i]), floor});
    worst = std::max(worst, std::abs(x[i] - y[i]) / denom);
  }
  return worst;
}

TEST(NnKernelsParity, MatmulFamilyRelativeBound) {
  const Backend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "scalar-only host";
  const Backend& scalar = kernels::scalar_backend();

  for (const MmShape& s : kMmShapes) {
    // matmul_acc: a (n x k), b (k x m).  tn: a (k x n).  nt: b (m x k).
    const std::vector<double> a_nk = rand_vec(s.n * s.k, 11 + s.n);
    const std::vector<double> a_kn = rand_vec(s.k * s.n, 13 + s.k);
    const std::vector<double> b_km = rand_vec(s.k * s.m, 17 + s.m);
    const std::vector<double> b_mk = rand_vec(s.m * s.k, 19 + s.m);
    // Accumulate into a non-trivial C: the kernels are += kernels, and
    // parity must hold including the preloaded values.
    const std::vector<double> c0 = rand_vec(s.n * s.m, 23 + s.n + s.m);

    // FMA keeps one rounding per multiply-add instead of two, so the
    // per-cell divergence grows with the k-long dot product.
    const double tol =
        1e-15 * static_cast<double>(std::max<std::size_t>(s.k, 1)) * 8.0;

    const auto check = [&](const char* name, auto member, const double* a,
                           const double* b) {
      std::vector<double> cs = c0, cv = c0;
      (scalar.*member)(cs.data(), a, b, s.n, s.k, s.m);
      ((*simd).*member)(cv.data(), a, b, s.n, s.k, s.m);
      EXPECT_LE(max_rel_diff(cs, cv), tol)
          << name << " n=" << s.n << " k=" << s.k << " m=" << s.m;
    };
    check("matmul_acc", &Backend::matmul_acc, a_nk.data(), b_km.data());
    check("matmul_tn_acc", &Backend::matmul_tn_acc, a_kn.data(), b_km.data());
    check("matmul_nt_acc", &Backend::matmul_nt_acc, a_nk.data(), b_mk.data());
  }
}

// The scalar reference itself must stay self-consistent when called
// through the dispatch layer vs directly — guards against the override
// machinery ever routing to the wrong table.
TEST(NnKernelsParity, ScalarOverrideRoutesToScalar) {
  const Backend& scalar = kernels::scalar_backend();
  const ScopedBackendOverride pin(scalar);
  EXPECT_EQ(&kernels::active(), &scalar);
}

// ---- transcendentals: a few ulp + exact saturation -------------------------

/// Doubles between a and b: 0 when equal (+0 and -0 count as equal), 1
/// for neighbours.
std::uint64_t ulp_distance(double a, double b) {
  const auto key = [](double v) {
    std::int64_t i = 0;
    std::memcpy(&i, &v, sizeof i);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ka = key(a), kb = key(b);
  return ka > kb ? static_cast<std::uint64_t>(ka - kb)
                 : static_cast<std::uint64_t>(kb - ka);
}

/// The pinned bound on |x| <= kUlpRange; measured <= 4 on AVX2.
constexpr std::uint64_t kMaxUlp = 8;
constexpr double kUlpRange = 700.0;

void expect_activations_close(const Backend& simd,
                              const std::vector<double>& a) {
  const Backend& scalar = kernels::scalar_backend();
  const std::size_t n = a.size();
  const auto check = [&](const char* name, auto member, double lo) {
    std::vector<double> ys(n), yv(n);
    (scalar.*member)(ys.data(), a.data(), n);
    (simd.*member)(yv.data(), a.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(std::isfinite(yv[i])) << name << " x=" << a[i];
      if (std::abs(a[i]) <= kUlpRange) {
        EXPECT_LE(ulp_distance(ys[i], yv[i]), kMaxUlp) << name << " x=" << a[i];
      }
      EXPECT_GE(yv[i], lo);
      EXPECT_LE(yv[i], 1.0);
    }
  };
  check("sigmoid", &Backend::vsigmoid, 0.0);
  check("tanh", &Backend::vtanh, -1.0);
}

TEST(NnKernelsParity, SigmoidTanhCloseAndSaturating) {
  const Backend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "scalar-only host";

  for (const std::size_t n : kLens) {
    // Wide range: every range-reduction step n, tiny arguments and the
    // saturated tails all get hit.
    std::vector<double> a = rand_vec(n, 400 + n, -40.0, 40.0);
    if (n >= 4) {
      a[0] = 0.0;
      a[1] = 1e-9;
      a[2] = 750.0;   // beyond exp range: must saturate, not NaN
      a[3] = -750.0;
    }
    expect_activations_close(*simd, a);
  }
  // Dense over the GRU's working range, where the gates live.
  std::vector<double> dense;
  for (int i = -20000; i <= 20000; ++i) dense.push_back(i * 1e-4);
  expect_activations_close(*simd, dense);
  // Both ends of the pinned range.
  expect_activations_close(*simd, {-700.0, -690.5, -354.25, 354.25, 690.5,
                                   700.0});
}

// NaN propagates lane by lane, the infinities and out-of-range finite
// arguments saturate to exactly the reference's limits, and tanh(-0) is
// -0.
TEST(NnKernelsParity, SigmoidTanhSpecialValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Nine lanes: two full vectors and a ragged tail.
  const std::vector<double> a = {nan,  inf, -inf, 750.0, -750.0,
                                 0.5, -0.0, 0.0,  nan};
  const std::size_t n = a.size();
  std::vector<const Backend*> backends{&kernels::scalar_backend()};
  if (const Backend* simd = kernels::simd_backend()) backends.push_back(simd);
  for (const Backend* k : backends) {
    SCOPED_TRACE(k->name);
    std::vector<double> ys(n), yt(n);
    k->vsigmoid(ys.data(), a.data(), n);
    k->vtanh(yt.data(), a.data(), n);
    EXPECT_TRUE(std::isnan(ys[0]));
    EXPECT_TRUE(std::isnan(ys[8]));
    EXPECT_TRUE(std::isnan(yt[0]));
    EXPECT_TRUE(std::isnan(yt[8]));
    EXPECT_EQ(ys[1], 1.0);
    EXPECT_EQ(ys[2], 0.0);
    EXPECT_EQ(ys[3], 1.0);
    EXPECT_EQ(ys[4], 0.0);
    EXPECT_EQ(yt[1], 1.0);
    EXPECT_EQ(yt[2], -1.0);
    EXPECT_EQ(yt[3], 1.0);
    EXPECT_EQ(yt[4], -1.0);
    // A NaN lane leaves its neighbours alone.
    EXPECT_TRUE(std::isfinite(ys[5]));
    EXPECT_TRUE(std::isfinite(yt[5]));
    // tanh keeps the sign of zero, as std::tanh does.
    EXPECT_EQ(ys[6], 0.5);
    EXPECT_EQ(ys[7], 0.5);
    EXPECT_EQ(yt[6], 0.0);
    EXPECT_TRUE(std::signbit(yt[6]));
    EXPECT_EQ(yt[7], 0.0);
    EXPECT_FALSE(std::signbit(yt[7]));
  }
}

// ---- fused GRU kernels ----------------------------------------------------

TEST(NnKernelsParity, GruGatesAndBlend) {
  const Backend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "scalar-only host";
  const Backend& scalar = kernels::scalar_backend();

  for (const std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{8}})
    for (const std::size_t hid : {std::size_t{1}, std::size_t{5},
                                  std::size_t{16}, std::size_t{17}}) {
      const std::size_t n = rows * hid;
      const std::vector<double> a_zr = rand_vec(rows * 2 * hid, 31 + n);
      const std::vector<double> h = rand_vec(n, 37 + n);
      const std::vector<double> an = rand_vec(n, 41 + n);

      std::vector<double> zs(n), rs(n), rhs(n), zv(n), rv(n), rhv(n);
      scalar.gru_gates(zs.data(), rs.data(), rhs.data(), a_zr.data(), h.data(),
                       rows, hid);
      simd->gru_gates(zv.data(), rv.data(), rhv.data(), a_zr.data(), h.data(),
                      rows, hid);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(zs[i], zv[i], 1e-12) << "z rows=" << rows << " hid=" << hid;
        EXPECT_NEAR(rs[i], rv[i], 1e-12) << "r";
        EXPECT_NEAR(rhs[i], rhv[i], 1e-12) << "rh";
      }

      std::vector<double> ns(n), ys(n), nv(n), yv(n);
      scalar.gru_blend(ns.data(), ys.data(), an.data(), zs.data(), h.data(), n);
      simd->gru_blend(nv.data(), yv.data(), an.data(), zs.data(), h.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(ns[i], nv[i], 1e-12) << "nout";
        EXPECT_NEAR(ys[i], yv[i], 1e-12) << "y";
      }
    }
}

// The full fused GRU step through the op layer: scalar vs SIMD within a
// forward bound loose enough for the transcendental divergence but tight
// enough to catch any indexing or tail bug instantly.
TEST(NnKernelsParity, GruStepForwardClose) {
  const Backend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "scalar-only host";

  RngStream rng(51);
  const GRUCell cell(16, 16, rng);
  const Var x(uniform_init(21, 16, -1.0, 1.0, rng), false);
  const Var h(uniform_init(21, 16, -1.0, 1.0, rng), false);
  const NoGradGuard guard;

  Tensor ys, yv;
  {
    const ScopedBackendOverride pin(kernels::scalar_backend());
    ys = cell.step(x, h).value();
  }
  {
    const ScopedBackendOverride pin(*simd);
    yv = cell.step(x, h).value();
  }
  ASSERT_EQ(ys.size(), yv.size());
  for (std::size_t i = 0; i < ys.size(); ++i)
    EXPECT_NEAR(ys.flat()[i], yv.flat()[i], 1e-11);
}

// ---- gradcheck under the SIMD backend -------------------------------------

TEST(NnKernelsGradcheck, MatmulAndGruUnderSimd) {
  const Backend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "scalar-only host";
  const ScopedBackendOverride pin(*simd);

  RngStream rng(61);
  Var a(uniform_init(5, 7, -1.0, 1.0, rng), true);
  Var w(uniform_init(7, 4, -1.0, 1.0, rng), true);
  std::vector<Var> params{a, w};
  auto rep = grad_check([&] { return mean_all(matmul(a, w)); }, params);
  EXPECT_LT(rep.max_rel_err, 1e-6);

  GRUCell cell(3, 4, rng);
  Var x(uniform_init(5, 3, -1.0, 1.0, rng), true);
  Var h(uniform_init(5, 4, -1.0, 1.0, rng), true);
  std::vector<Var> gparams{x, h};
  for (auto& [name, v] : cell.named_params()) gparams.push_back(v);
  auto grep = grad_check([&] { return sum_all(cell.step(x, h)); }, gparams);
  EXPECT_LT(grep.max_rel_err, 1e-6);
}

// ---- alignment contract ---------------------------------------------------

TEST(NnKernelsAlignment, TensorBuffersAre64ByteAligned) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {3, 5}, {552, 16}, {17, 33}};
  for (const auto& [r, c] : shapes) {
    Tensor t(r, c);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.flat().data()) %
                  kTensorAlign,
              0u)
        << r << "x" << c;
  }
}

// ---- dispatch surface ------------------------------------------------------

TEST(NnKernelsDispatch, ReasonAndActiveAgreeWithEnv) {
  const char* env = std::getenv("RNX_SIMD");
  const std::string mode = env != nullptr ? env : "";
  if (mode != "" && mode != "native" && mode != "scalar") {
    // Invalid values fail loudly instead of silently falling back.
    EXPECT_THROW((void)kernels::active(), std::runtime_error);
    return;
  }
  const Backend& act = kernels::active();
  const std::string reason = kernels::dispatch_reason();
  EXPECT_FALSE(reason.empty());
  if (mode == "scalar") {
    EXPECT_EQ(&act, &kernels::scalar_backend());
    EXPECT_NE(reason.find("RNX_SIMD"), std::string::npos) << reason;
  } else {
    // Auto (unset or "native"): best available wins.
    const Backend* simd = kernels::simd_backend();
    EXPECT_EQ(&act, simd != nullptr ? simd : &kernels::scalar_backend());
  }
}

TEST(NnKernelsDispatch, OverrideNestsAndRestores) {
  const Backend& outer = kernels::active();
  const Backend& scalar = kernels::scalar_backend();
  {
    const ScopedBackendOverride pin1(scalar);
    EXPECT_EQ(&kernels::active(), &scalar);
    const Backend* simd = kernels::simd_backend();
    if (simd != nullptr) {
      const ScopedBackendOverride pin2(*simd);
      EXPECT_EQ(&kernels::active(), simd);
    }
    EXPECT_EQ(&kernels::active(), &scalar);
  }
  EXPECT_EQ(&kernels::active(), &outer);
}

// ---- bitwise neutrality on trained weights --------------------------------

// The TensorPool scratch routing and the kernel layer must be
// deterministic end to end: two identically seeded training runs produce
// bit-identical weights, including reused pool buffers between steps.
TEST(NnKernelsNeutrality, TrainingIsBitwiseDeterministic) {
  const auto train_once = [] {
    RngStream rng(71);
    GRUCell cell(4, 6, rng);
    Var x(uniform_init(9, 4, -1.0, 1.0, rng), true);
    Var h(uniform_init(9, 6, -1.0, 1.0, rng), true);
    auto params = cell.named_params();
    for (int step = 0; step < 5; ++step) {
      for (auto& [name, v] : params) v.zero_grad();
      x.zero_grad();
      h.zero_grad();
      Var loss = mean_all(mul(cell.step(x, h), cell.step(x, h)));
      loss.backward();
      for (auto& [name, v] : params) {
        const auto vals = v.mutable_value().flat();
        const auto grads = v.grad().flat();
        for (std::size_t i = 0; i < vals.size(); ++i)
          vals[i] -= 0.05 * grads[i];
      }
    }
    std::vector<double> out;
    for (const auto& [name, v] : params)
      out.insert(out.end(), v.value().flat().begin(), v.value().flat().end());
    return out;
  };
  const std::vector<double> run1 = train_once();
  const std::vector<double> run2 = train_once();
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t i = 0; i < run1.size(); ++i) EXPECT_EQ(run1[i], run2[i]);
}

}  // namespace
