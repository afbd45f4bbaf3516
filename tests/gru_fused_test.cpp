// Fused GRU kernel vs the op-by-op composition: value parity, gradient
// parity, central-difference gradcheck, and tensor-pool behaviour.
//
// GruProject.*: the whole-step kernels (kernels::Backend::gru_project and
// gru_step) against the same backend's matmul route (matmul_acc +
// gru_gates + gru_blend), bitwise (through a taped nn::GruSweep, the
// grads the backward sums per source row to rounding), on raw rows and
// through nn::GruSweep:
// contiguous and indexed rows, x rows repeated across rows and positions,
// odd row counts, taped and untaped; sweeps whose sources are replaced
// between iterations; and the sweep's source-width guard.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/gradcheck.hpp"
#include "nn/gru.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"
#include "util/rng.hpp"
#include "grad_rounding.hpp"
#include "kernel_tables.hpp"

namespace {

using rnx::test::simd_tables;

using namespace rnx::nn;
using rnx::util::RngStream;

Tensor random_tensor(std::size_t r, std::size_t c, RngStream& rng) {
  Tensor t(r, c);
  for (auto& x : t.flat()) x = rng.uniform(-1.0, 1.0);
  return t;
}

std::vector<Var> cell_params(const GRUCell& cell) {
  std::vector<Var> out;
  for (const auto& [n, v] : cell.named_params()) out.push_back(v);
  return out;
}

TEST(GruFused, ForwardMatchesComposed) {
  RngStream rng(21);
  const GRUCell cell(5, 7, rng);
  const Var x = constant(random_tensor(9, 5, rng));
  const Var h = constant(random_tensor(9, 7, rng));
  const Tensor fused = cell.step(x, h).value();
  const Tensor composed = cell.step_composed(x, h).value();
  ASSERT_TRUE(fused.same_shape(composed));
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_NEAR(fused.flat()[i], composed.flat()[i], 1e-14);
}

TEST(GruFused, GradientsMatchComposedAllParamsAndInputs) {
  RngStream rng(22);
  const GRUCell cell(4, 6, rng);
  const Tensor xv = random_tensor(8, 4, rng);
  const Tensor hv = random_tensor(8, 6, rng);

  auto run = [&](bool fused) {
    Var x(xv, /*requires_grad=*/true);
    Var h(hv, /*requires_grad=*/true);
    const Var y = fused ? cell.step(x, h) : cell.step_composed(x, h);
    sum_all(mul(y, y)).backward();  // nonuniform downstream gradient
    std::vector<Tensor> grads{x.grad(), h.grad()};
    for (auto& p : cell_params(cell)) {
      grads.push_back(p.grad());
      p.zero_grad();
    }
    return grads;
  };

  const auto fused = run(true);
  const auto composed = run(false);
  ASSERT_EQ(fused.size(), composed.size());
  for (std::size_t t = 0; t < fused.size(); ++t) {
    ASSERT_TRUE(fused[t].same_shape(composed[t]));
    for (std::size_t i = 0; i < fused[t].size(); ++i)
      EXPECT_NEAR(fused[t].flat()[i], composed[t].flat()[i], 1e-12)
          << "tensor " << t << " entry " << i;
  }
}

TEST(GruFused, GradcheckAgainstCentralDifferences) {
  RngStream rng(23);
  const GRUCell cell(3, 4, rng);
  const Tensor xv = random_tensor(5, 3, rng);
  const Tensor hv = random_tensor(5, 4, rng);
  Var x(xv, true);
  Var h(hv, true);
  std::vector<Var> params = cell_params(cell);
  params.push_back(x);
  params.push_back(h);
  const auto report = grad_check(
      [&] { return mean_all(cell.step(x, h)); }, params);
  EXPECT_TRUE(report.ok(1e-6)) << "max rel err " << report.max_rel_err;
}

TEST(GruFused, BpttThroughFusedSteps) {
  // Two chained fused steps: the saved activations of step 1 must survive
  // until step 2's backward routes gradient through them.
  RngStream rng(24);
  const GRUCell cell(2, 3, rng);
  const Tensor x1 = random_tensor(4, 2, rng);
  const Tensor x2 = random_tensor(4, 2, rng);
  std::vector<Var> params = cell_params(cell);
  const auto report = grad_check(
      [&] {
        Var h = constant(Tensor::zeros(4, 3));
        h = cell.step(constant(x1), h);
        h = cell.step(constant(x2), h);
        return mean_all(h);
      },
      params);
  EXPECT_TRUE(report.ok(1e-6)) << "max rel err " << report.max_rel_err;
}

TEST(GruFused, NoGradModeBuildsNoTape) {
  RngStream rng(25);
  const GRUCell cell(3, 3, rng);
  const NoGradGuard guard;
  const Var y = cell.step(constant(random_tensor(2, 3, rng)),
                          constant(random_tensor(2, 3, rng)));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
}

TEST(TensorPool, RecyclesBuffers) {
  TensorPool::drain();
  Tensor a = TensorPool::acquire(4, 4);
  a(0, 0) = 7.0;
  TensorPool::release(std::move(a));
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  const Tensor b = TensorPool::acquire(2, 8);  // same element count, reused
  EXPECT_EQ(TensorPool::pooled_count(), 0u);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.cols(), 8u);
  for (const double v : b.flat()) EXPECT_EQ(v, 0.0);  // zeroed on reuse
  TensorPool::drain();
}

// A request takes the smallest pooled buffer of its size to twice that,
// so a large buffer waits for a large request; a full pool keeps its
// largest buffers; a buffer a little too small is grown.
TEST(TensorPool, BestFitKeepsLargeBuffers) {
  TensorPool::drain();
  TensorPool::release(Tensor(100, 100));
  TensorPool::release(Tensor(2, 2));
  const Tensor small = TensorPool::acquire_uninit(1, 3);  // capacity 4 fits
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  const Tensor tiny = TensorPool::acquire(1, 1);  // nothing within 2x
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  EXPECT_EQ(small.size() + tiny.size(), 4u);
  const Tensor big = TensorPool::acquire(90, 100);
  EXPECT_EQ(TensorPool::pooled_count(), 0u);
  for (const double v : big.flat()) EXPECT_EQ(v, 0.0);

  for (int i = 0; i < 64; ++i) TensorPool::release(Tensor(1, 2));
  TensorPool::release(Tensor(50, 50));  // full: replaces a small one
  TensorPool::release(Tensor(1, 1));  // full, smaller than all: dropped
  EXPECT_EQ(TensorPool::pooled_count(), 64u);
  EXPECT_EQ(TensorPool::acquire_uninit(40, 50).rows(), 40u);
  EXPECT_EQ(TensorPool::pooled_count(), 63u);

  // Nothing fits: a buffer of at least half the size is grown, a smaller
  // one stays.
  TensorPool::drain();
  TensorPool::release(Tensor(30, 50));
  TensorPool::release(Tensor(10, 10));
  const Tensor grown = TensorPool::acquire(40, 50);
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  for (const double v : grown.flat()) EXPECT_EQ(v, 0.0);
  (void)TensorPool::acquire_uninit(40, 50);
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  TensorPool::drain();
}

TEST(TensorPool, TakeBufferEmptiesTensor) {
  Tensor t(3, 2);
  auto buf = std::move(t).take_buffer();
  EXPECT_EQ(buf.size(), 6u);
  EXPECT_TRUE(t.empty());  // NOLINT(bugprone-use-after-move): documented
}

// ---- whole-step kernels vs the matmul route ---------------------------------

using kernels::Backend;
using kernels::ScopedBackendOverride;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||  // empty tensors may hold null data pointers
          std::memcmp(a.flat().data(), b.flat().data(),
                      a.size() * sizeof(double)) == 0);
}

/// `b` without its whole-step GRU kernels: every step runs b's matmul
/// kernels and its gru_gates / gru_blend passes.
Backend matmul_route(const Backend& b) {
  Backend composed = b;
  composed.gru_project = nullptr;
  composed.gru_step = nullptr;
  composed.gru_step_backward = nullptr;
  return composed;
}

/// Whether `b` has the whole-step kernels.
bool has_step_kernel(const Backend& b) {
  return b.gru_project != nullptr && b.gru_step != nullptr;
}

/// One step's output and the activations it saves, each (rows x hid).
struct StepOut {
  Tensor y, z, r, n;
};

/// The matmul route of one step over contiguous rows, as the composed
/// forward runs it on `b`: [x|h] times the stacked z/r weights from the
/// biases, gru_gates, then x Wxn and (r.*h) Whn from bn, then gru_blend.
StepOut matmul_route_step(const Backend& b, const GRUCell& cell,
                          const Tensor& x, const Tensor& h) {
  const std::size_t rows = x.rows(), in = x.cols(), hid = h.cols();
  const auto params = cell.named_params();  // wxz whz bz wxr whr br wxn whn bn
  const auto w = [&](std::size_t i) -> const Tensor& {
    return params[i].second.value();
  };
  Tensor xh(rows, in + hid), w_zr(in + hid, 2 * hid), a_zr(rows, 2 * hid);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < in; ++c) xh(i, c) = x(i, c);
    for (std::size_t c = 0; c < hid; ++c) xh(i, in + c) = h(i, c);
    for (std::size_t c = 0; c < hid; ++c) {
      a_zr(i, c) = w(2)(0, c);
      a_zr(i, hid + c) = w(5)(0, c);
    }
  }
  for (std::size_t p = 0; p < in + hid; ++p)
    for (std::size_t c = 0; c < hid; ++c) {
      w_zr(p, c) = p < in ? w(0)(p, c) : w(1)(p - in, c);
      w_zr(p, hid + c) = p < in ? w(3)(p, c) : w(4)(p - in, c);
    }
  b.matmul_acc(a_zr.flat().data(), xh.flat().data(), w_zr.flat().data(), rows,
               in + hid, 2 * hid);
  Tensor an(rows, hid);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t c = 0; c < hid; ++c) an(i, c) = w(8)(0, c);
  b.matmul_acc(an.flat().data(), x.flat().data(), w(6).flat().data(), rows,
               in, hid);
  StepOut out{Tensor(rows, hid), Tensor(rows, hid), Tensor(rows, hid),
              Tensor(rows, hid)};
  Tensor rh(rows, hid);
  b.gru_gates(out.z.flat().data(), out.r.flat().data(), rh.flat().data(),
              a_zr.flat().data(), h.flat().data(), rows, hid);
  b.matmul_acc(an.flat().data(), rh.flat().data(), w(7).flat().data(), rows,
               hid, hid);
  b.gru_blend(out.n.flat().data(), out.y.flat().data(), an.flat().data(),
              out.z.flat().data(), h.flat().data(), rows * hid);
  return out;
}

Tensor rows_of(const Tensor& src, const std::vector<Index>& idx) {
  Tensor out(idx.size(), src.cols());
  for (std::size_t i = 0; i < idx.size(); ++i)
    for (std::size_t c = 0; c < src.cols(); ++c) out(i, c) = src(idx[i], c);
  return out;
}

// The raw kernel pair: gru_project over a whole source (u read by
// x_rows) or over the rows read (u read in order), then gru_step, against
// the matmul route over the gathered rows.
TEST(GruProject, KernelPairMatchesMatmulRouteBitwise) {
  std::vector<const Backend*> simds;
  for (const Backend* b : simd_tables())
    if (has_step_kernel(*b)) simds.push_back(b);
  if (simds.empty()) GTEST_SKIP() << "no whole-step GRU kernel on this host";
  for (const Backend* simd : simds) {
    SCOPED_TRACE(simd->name);
    constexpr std::size_t kSrcRows = 7;
    for (const std::size_t hid : {4, 8, 12, 16})
      for (const std::size_t in : {hid, std::size_t{3}})
        for (const std::size_t rows : {1, 2, 3, 5, 229})
          for (const bool indexed : {false, true})
            for (const bool save : {false, true}) {
              SCOPED_TRACE("hid=" + std::to_string(hid) +
                           " in=" + std::to_string(in) +
                           " rows=" + std::to_string(rows) +
                           " indexed=" + std::to_string(indexed) +
                           " save=" + std::to_string(save));
              RngStream rng(8300 + 53 * hid + 7 * in + rows);
              const GRUCell cell(in, hid, rng);
              const auto params = cell.named_params();
              const auto pw = [&](std::size_t i) {
                return params[i].second.value().flat().data();
              };
              const kernels::GruWeights w{pw(0), pw(1), pw(2), pw(3), pw(4),
                                          pw(5), pw(6), pw(7), pw(8)};
              // Indexed: x rows repeat (kSrcRows source rows), h rows are a
              // shuffled subset of a larger state.
              const std::size_t x_src = indexed ? kSrcRows : rows;
              const std::size_t h_src = indexed ? rows + 4 : rows;
              const Tensor x = random_tensor(x_src, in, rng);
              const Tensor h = random_tensor(h_src, hid, rng);
              std::vector<Index> x_rows(rows), h_rows(h_src);
              std::iota(x_rows.begin(), x_rows.end(), Index{0});
              std::iota(h_rows.begin(), h_rows.end(), Index{0});
              if (indexed) {
                for (auto& e : x_rows)
                  e = static_cast<Index>(rng.uniform_int(0, kSrcRows - 1));
                for (std::size_t i = h_src - 1; i > 0; --i)
                  std::swap(h_rows[i], h_rows[static_cast<std::size_t>(
                                           rng.uniform_int(0, i))]);
              }
              h_rows.resize(rows);
              const StepOut want = matmul_route_step(
                  *simd, cell, rows_of(x, x_rows), rows_of(h, h_rows));

              const Index* xi = indexed ? x_rows.data() : nullptr;
              const Index* hi = indexed ? h_rows.data() : nullptr;
              Tensor u_src(x_src, 3 * hid), u_read(rows, 3 * hid);
              ASSERT_TRUE(simd->gru_project(u_src.flat().data(),
                                            x.flat().data(), nullptr, x_src, in,
                                            hid, w));
              ASSERT_TRUE(simd->gru_project(u_read.flat().data(),
                                            x.flat().data(), xi, rows, in, hid,
                                            w));
              for (const bool per_source : {false, true}) {
                StepOut got{Tensor(rows, hid), Tensor(rows, hid),
                            Tensor(rows, hid), Tensor(rows, hid)};
                const kernels::GruActs acts{got.z.flat().data(),
                                            got.r.flat().data(),
                                            got.n.flat().data()};
                ASSERT_TRUE(simd->gru_step(
                    got.y.flat().data(), nullptr,
                    (per_source ? u_src : u_read).flat().data(),
                    per_source ? xi : nullptr, h.flat().data(), hi, rows, hid,
                    w, save ? &acts : nullptr));
                EXPECT_TRUE(bitwise_equal(got.y, want.y));
                if (save) {
                  EXPECT_TRUE(bitwise_equal(got.z, want.z));
                  EXPECT_TRUE(bitwise_equal(got.r, want.r));
                  EXPECT_TRUE(bitwise_equal(got.n, want.n));
                }
              }
            }
  }
}

/// Positions of a path RNN over kPaths path rows reading a source of
/// kElems rows: each steps `rows` distinct, shuffled path rows, and the
/// few source rows repeat within a position and across positions.
struct Positions {
  static constexpr std::size_t kPaths = 40;
  static constexpr std::size_t kElems = 5;
  std::vector<std::vector<Index>> path_rows, elem_ids;

  Positions(std::size_t count, std::size_t rows, RngStream& rng) {
    for (std::size_t pos = 0; pos < count; ++pos) {
      std::vector<Index> all(kPaths);
      std::iota(all.begin(), all.end(), Index{0});
      std::vector<Index> prow, eid;
      for (std::size_t i = 0; i < rows; ++i) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(i), static_cast<std::int64_t>(kPaths) - 1));
        std::swap(all[i], all[j]);
        prow.push_back(all[i]);
        eid.push_back(static_cast<Index>(
            rng.uniform_int(0, static_cast<std::int64_t>(kElems) - 1)));
      }
      path_rows.push_back(std::move(prow));
      elem_ids.push_back(std::move(eid));
    }
  }

  [[nodiscard]] std::size_t entries() const {
    std::size_t n = 0;
    for (const auto& r : path_rows) n += r.size();
    return n;
  }
};

/// What indexed_sweep returns: its tensors, and which grads the backward
/// kernel's route sums in another order (grad_rounding.hpp): the source's,
/// the Wx* and bias grads, and, when the input width is not a multiple of
/// 4, every grad (each earlier position reads the carry a later one's dh
/// wrote).
struct SweepOut {
  std::vector<Tensor> tensors;
  std::vector<bool> rounded;

  void add(const Tensor& t, bool rounded_grad = false) {
    tensors.push_back(t);
    rounded.push_back(rounded_grad);
  }
};

/// One sweep over `ps`, then (taped) a backward of a loss over every
/// position's messages and the final states: each message, the states,
/// then the source's, the initial states' and the cell's grads.
SweepOut indexed_sweep(const GRUCell& cell, const Positions& ps,
                                  const Tensor& src0, const Tensor& initial0,
                                  const Tensor& w_msg, const Tensor& w_state,
                                  bool taped) {
  std::optional<NoGradGuard> guard;
  if (!taped) guard.emplace();
  const Var src(src0, taped);
  const Var initial(initial0, taped);
  GruSweep sweep(cell, initial, {src}, ps.entries());
  SweepOut out;
  Var loss;
  for (std::size_t p = 0; p < ps.path_rows.size(); ++p) {
    sweep.step(src, ps.elem_ids[p], ps.path_rows[p]);
    const Var msg = sweep.messages(Positions::kElems);
    out.add(msg.value());
    if (taped) {
      const Var term = sum_all(mul(msg, constant(w_msg)));
      loss = loss.defined() ? add(loss, term) : term;
    }
  }
  const Var states = sweep.states();
  out.add(states.value());
  if (!taped) return out;
  add(loss, sum_all(mul(states, constant(w_state)))).backward();
  const bool dh_rounded = cell.input_dim() % 4 != 0;
  out.add(src.grad(), /*rounded_grad=*/true);
  out.add(initial.grad(), dh_rounded);
  for (auto& [name, p] : cell.named_params()) {
    out.add(p.grad(), dh_rounded || name.find(".wh") == std::string::npos);
    p.zero_grad();
  }
  return out;
}

TEST(GruProject, IndexedSweepMatchesMatmulRouteBitwise) {
  std::vector<const Backend*> simds;
  for (const Backend* b : simd_tables())
    if (has_step_kernel(*b)) simds.push_back(b);
  if (simds.empty()) GTEST_SKIP() << "no whole-step GRU kernel on this host";
  for (const Backend* simd : simds) {
    SCOPED_TRACE(simd->name);
    const Backend composed = matmul_route(*simd);
    for (const std::size_t hid : {4, 8, 12, 16})
      for (const std::size_t in : {hid, std::size_t{3}})
        for (const std::size_t rows : {1, 3, 5, 37})
          for (const bool taped : {false, true}) {
            SCOPED_TRACE("hid=" + std::to_string(hid) + " in=" +
                         std::to_string(in) + " rows=" + std::to_string(rows) +
                         " taped=" + std::to_string(taped));
            RngStream rng(8100 + 53 * hid + 7 * in + rows);
            const GRUCell cell(in, hid, rng);
            const Positions ps(3, rows, rng);
            const Tensor src = random_tensor(Positions::kElems, in, rng);
            const Tensor initial = random_tensor(Positions::kPaths, hid, rng);
            const Tensor w_msg = random_tensor(Positions::kElems, hid, rng);
            const Tensor w_state = random_tensor(Positions::kPaths, hid, rng);
            SweepOut want, got;
            {
              const ScopedBackendOverride pin(composed);
              want =
                  indexed_sweep(cell, ps, src, initial, w_msg, w_state, taped);
            }
            {
              const ScopedBackendOverride pin(*simd);
              got =
                  indexed_sweep(cell, ps, src, initial, w_msg, w_state, taped);
            }
            // Values and the Wh* grads bit for bit, the rounded grads to
            // rounding.
            ASSERT_EQ(got.tensors.size(), want.tensors.size());
            for (std::size_t i = 0; i < got.tensors.size(); ++i) {
              SCOPED_TRACE("tensor " + std::to_string(i));
              if (want.rounded[i])
                EXPECT_TRUE(rnx::test::within_rounding(got.tensors[i],
                                                    want.tensors[i]));
              else
                EXPECT_TRUE(bitwise_equal(got.tensors[i], want.tensors[i]));
            }
          }
  }
}

// Two iterations, as Model::forward runs them: the second sweep reads a
// replaced source (and starts from the first one's states), so it must
// not step on anything computed from the first source.  The reference
// steps each position on its own: step_indexed untaped, gather_rows ->
// step -> scatter_rows taped.
TEST(GruProject, SweepsWithReplacedSourcesMatchPerPositionSteps) {
  // The backend with the kernels runs first, so no earlier sweep has
  // left only an empty projection behind for a stale read to hide in.
  std::vector<const Backend*> backends = rnx::test::simd_tables();
  backends.push_back(&kernels::scalar_backend());
  for (const Backend* backend : backends)
    for (const std::size_t hid : {4, 10, 12})
      for (const bool taped : {false, true}) {
        SCOPED_TRACE(std::string(backend->name) + " hid=" +
                     std::to_string(hid) + " taped=" + std::to_string(taped));
        const ScopedBackendOverride pin(*backend);
        std::optional<NoGradGuard> guard;
        if (!taped) guard.emplace();
        RngStream rng(8200 + hid);
        const GRUCell cell(hid, hid, rng);
        const Positions ps(3, 23, rng);
        const Tensor initial = random_tensor(Positions::kPaths, hid, rng);
        const std::vector<Tensor> srcs{
            random_tensor(Positions::kElems, hid, rng),
            random_tensor(Positions::kElems, hid, rng)};

        Var swept{Tensor(initial)};
        Var stepped{Tensor(initial)};
        for (const Tensor& s : srcs) {
          const Var src{Tensor(s)};
          GruSweep sweep(cell, swept, {src}, ps.entries());
          for (std::size_t p = 0; p < ps.path_rows.size(); ++p) {
            sweep.step(src, ps.elem_ids[p], ps.path_rows[p]);
            if (!taped) {
              cell.step_indexed(src, ps.elem_ids[p], stepped, ps.path_rows[p]);
              continue;
            }
            const Var h2 = cell.step(gather_rows(src, ps.elem_ids[p]),
                                     gather_rows(stepped, ps.path_rows[p]));
            stepped = scatter_rows(stepped, ps.path_rows[p], h2);
          }
          swept = sweep.states();
          EXPECT_TRUE(bitwise_equal(swept.value(), stepped.value()));
        }
      }
}

// A source of the wrong width is refused by the constructor, before any
// source is projected: the pool lends nothing and no value changes.
TEST(GruProject, SweepRejectsSourceWidthBeforeReading) {
  const std::vector<const Backend*> backends = rnx::test::all_tables();
  RngStream rng(8400);
  const GRUCell cell(5, 12, rng);
  const Tensor start = random_tensor(6, 12, rng);
  const Var good(random_tensor(4, 5, rng), true);
  const Var bad(random_tensor(4, 12, rng), true);
  for (const Backend* backend : backends)
    for (const bool taped : {false, true}) {
      SCOPED_TRACE(std::string(backend->name) + " taped=" +
                   std::to_string(taped));
      const ScopedBackendOverride pin(*backend);
      std::optional<NoGradGuard> guard;
      if (!taped) guard.emplace();
      const Var initial{Tensor(start)};
      TensorPool::drain();
      TensorPool::release(Tensor(4, 3 * 12));
      EXPECT_THROW(GruSweep(cell, initial, {good, bad}, 2),
                   std::invalid_argument);
      EXPECT_EQ(TensorPool::pooled_count(), 1u);
      EXPECT_TRUE(bitwise_equal(initial.value(), start));
      // An undefined source is skipped; the right widths construct.
      EXPECT_NO_THROW(GruSweep(cell, initial, {good, Var()}, 2));
      TensorPool::drain();
    }
}

}  // namespace
