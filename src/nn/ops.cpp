#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/kernels.hpp"
#include "nn/pool.hpp"

namespace rnx::nn {

// Forward-pass outputs and backward-saved activations come from the
// thread-local TensorPool rather than fresh allocations: every op output
// buffer returns to the pool when its tape node dies (see Node::~Node),
// so a steady-state training step runs allocation-free.  The elementwise
// ops are single-pass through the dispatched kernel backend — add/sub
// used to materialize a full copy of `a` and then fix it up in a second
// pass.

namespace {
void check_same_shape(const Var& a, const Var& b, const char* what) {
  if (!a.value().same_shape(b.value()))
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
}

/// Pool-backed deep copy (backward-saved activations).
Tensor pooled_copy(const Tensor& src) {
  Tensor dst = TensorPool::acquire_uninit(src.rows(), src.cols());
  const auto s = src.flat();
  std::copy(s.begin(), s.end(), dst.flat().begin());
  return dst;
}
}  // namespace

Var constant(Tensor t) { return Var(std::move(t), /*requires_grad=*/false); }

Var add(const Var& a, const Var& b) {
  check_same_shape(a, b, "add");
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vadd(y.flat().data(), a.value().flat().data(),
                         b.value().flat().data(), y.size());
  return Var::make(std::move(y), {a, b}, [a = Var(a), b = Var(b)](const Tensor& g) mutable {
    if (a.requires_grad()) a.grad_ref().add_inplace(g);
    if (b.requires_grad()) b.grad_ref().add_inplace(g);
  });
}

Var sub(const Var& a, const Var& b) {
  check_same_shape(a, b, "sub");
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vsub(y.flat().data(), a.value().flat().data(),
                         b.value().flat().data(), y.size());
  return Var::make(std::move(y), {a, b}, [a = Var(a), b = Var(b)](const Tensor& g) mutable {
    if (a.requires_grad()) a.grad_ref().add_inplace(g);
    if (b.requires_grad()) b.grad_ref().axpy_inplace(-1.0, g);
  });
}

Var mul(const Var& a, const Var& b) {
  check_same_shape(a, b, "mul");
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vmul(y.flat().data(), a.value().flat().data(),
                         b.value().flat().data(), y.size());
  return Var::make(std::move(y), {a, b}, [a = Var(a), b = Var(b)](const Tensor& g) mutable {
    if (a.requires_grad())
      kernels::active().vmacc(a.grad_ref().flat().data(), g.flat().data(),
                              b.value().flat().data(), g.size());
    if (b.requires_grad())
      kernels::active().vmacc(b.grad_ref().flat().data(), g.flat().data(),
                              a.value().flat().data(), g.size());
  });
}

Var scale(const Var& a, double c) { return affine(a, c, 0.0); }

Var affine(const Var& a, double alpha, double beta) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vaffine(y.flat().data(), a.value().flat().data(), alpha,
                            beta, y.size());
  return Var::make(std::move(y), {a}, [a = Var(a), alpha](const Tensor& g) mutable {
    if (a.requires_grad()) a.grad_ref().axpy_inplace(alpha, g);
  });
}

Var matmul(const Var& a, const Var& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor y = TensorPool::acquire(a.rows(), b.cols());
  matmul_acc(y, a.value(), b.value());
  return Var::make(std::move(y), {a, b}, [a = Var(a), b = Var(b)](const Tensor& g) mutable {
    if (a.requires_grad()) matmul_nt_acc(a.grad_ref(), g, b.value());
    if (b.requires_grad()) matmul_tn_acc(b.grad_ref(), a.value(), g);
  });
}

Var add_bias(const Var& a, const Var& bias) {
  if (bias.rows() != 1 || bias.cols() != a.cols())
    throw std::invalid_argument("add_bias: bias must be 1 x cols(a)");
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  const auto& backend = kernels::active();
  const double* bv = bias.value().flat().data();
  const std::size_t cols = a.cols();
  for (std::size_t r = 0; r < y.rows(); ++r)
    backend.vadd(y.row(r).data(), a.value().row(r).data(), bv, cols);
  return Var::make(std::move(y), {a, bias},
                   [a = Var(a), bias = Var(bias)](const Tensor& g) mutable {
                     if (a.requires_grad()) a.grad_ref().add_inplace(g);
                     if (bias.requires_grad()) {
                       double* bg = bias.grad_ref().flat().data();
                       const auto& bk = kernels::active();
                       for (std::size_t r = 0; r < g.rows(); ++r)
                         bk.vadd(bg, bg, g.row(r).data(), g.cols());
                     }
                   });
}

Var sigmoid(const Var& a) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vsigmoid(y.flat().data(), a.value().flat().data(),
                             y.size());
  if (grad_disabled() || !a.requires_grad()) return Var(std::move(y));
  Tensor ycopy = pooled_copy(y);  // for the backward: dy/dx = y(1-y)
  return Var::make(std::move(y), {a},
                   [a = Var(a), ycopy = std::move(ycopy)](const Tensor& g) mutable {
                     auto ag = a.grad_ref().flat();
                     const auto gv = g.flat();
                     const auto yv2 = ycopy.flat();
                     for (std::size_t i = 0; i < gv.size(); ++i)
                       ag[i] += gv[i] * yv2[i] * (1.0 - yv2[i]);
                   });
}

Var tanh_op(const Var& a) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vtanh(y.flat().data(), a.value().flat().data(), y.size());
  if (grad_disabled() || !a.requires_grad()) return Var(std::move(y));
  Tensor ycopy = pooled_copy(y);
  return Var::make(std::move(y), {a},
                   [a = Var(a), ycopy = std::move(ycopy)](const Tensor& g) mutable {
                     auto ag = a.grad_ref().flat();
                     const auto gv = g.flat();
                     const auto yv2 = ycopy.flat();
                     for (std::size_t i = 0; i < gv.size(); ++i)
                       ag[i] += gv[i] * (1.0 - yv2[i] * yv2[i]);
                   });
}

Var relu(const Var& a) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vrelu(y.flat().data(), a.value().flat().data(), y.size());
  return Var::make(std::move(y), {a}, [a = Var(a)](const Tensor& g) mutable {
    if (!a.requires_grad()) return;
    auto ag = a.grad_ref().flat();
    const auto gv = g.flat();
    const auto av2 = a.value().flat();
    for (std::size_t i = 0; i < gv.size(); ++i)
      if (av2[i] > 0.0) ag[i] += gv[i];
  });
}

Var softplus(const Var& a) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  const auto av = a.value().flat();
  auto yv = y.flat();
  for (std::size_t i = 0; i < yv.size(); ++i) {
    // Numerically stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|}).
    yv[i] = std::max(av[i], 0.0) + std::log1p(std::exp(-std::abs(av[i])));
  }
  return Var::make(std::move(y), {a}, [a = Var(a)](const Tensor& g) mutable {
    if (!a.requires_grad()) return;
    auto ag = a.grad_ref().flat();
    const auto gv = g.flat();
    const auto av2 = a.value().flat();
    for (std::size_t i = 0; i < gv.size(); ++i)
      ag[i] += gv[i] / (1.0 + std::exp(-av2[i]));
  });
}

// Graph plumbing.  Each op's forward reads its indices through a span;
// only a recorded tape needs them owned, for the backward closure.  The
// vector overloads move the caller's vector into the closure; the span
// overloads copy theirs only when a tape is recorded, and otherwise
// compute straight from the span.
namespace {

Tensor gather_values(const Var& a, std::span<const Index> idx) {
  for (const Index i : idx)
    if (i >= a.rows())
      throw std::out_of_range("gather_rows: index out of range");
  Tensor y = TensorPool::acquire_uninit(idx.size(), a.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    const auto src = a.value().row(idx[r]);
    std::copy(src.begin(), src.end(), y.row(r).begin());
  }
  return y;
}

/// seen[i] is set for every row idx overwrites (the backward skips them).
Tensor scatter_values(const Var& base, std::span<const Index> idx,
                      const Var& rows, std::vector<char>& seen) {
  if (rows.rows() != idx.size() || rows.cols() != base.cols())
    throw std::invalid_argument("scatter_rows: rows shape mismatch");
  seen.assign(base.rows(), 0);
  for (const Index i : idx) {
    if (i >= base.rows())
      throw std::out_of_range("scatter_rows: index out of range");
    if (seen[i]) throw std::invalid_argument("scatter_rows: duplicate index");
    seen[i] = 1;
  }
  Tensor y = pooled_copy(base.value());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    const auto src = rows.value().row(r);
    std::copy(src.begin(), src.end(), y.row(idx[r]).begin());
  }
  return y;
}

/// out[seg[i]] += a[rows[i]] in ascending i; rows == nullptr reads row i
/// (and then needs one segment id per row of a).
Tensor segment_values(const Var& a, const Index* rows,
                      std::span<const Index> seg, std::size_t num_segments) {
  if (rows == nullptr && seg.size() != a.rows())
    throw std::invalid_argument("segment_sum: one segment id per row");
  for (std::size_t i = 0; i < seg.size(); ++i) {
    if (seg[i] >= num_segments)
      throw std::out_of_range("segment_sum: segment id out of range");
    if (rows != nullptr && rows[i] >= a.rows())
      throw std::out_of_range("segment_sum: row out of range");
  }
  Tensor y = TensorPool::acquire(num_segments, a.cols());
  for (std::size_t i = 0; i < seg.size(); ++i) {
    auto dst = y.row(seg[i]);
    const auto src = a.value().row(rows != nullptr ? rows[i] : i);
    for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
  }
  return y;
}

std::vector<Index> owned(std::span<const Index> idx) {
  return {idx.begin(), idx.end()};
}

}  // namespace

Var gather_rows(const Var& a, std::vector<Index> idx) {
  Tensor y = gather_values(a, idx);
  return Var::make(std::move(y), {a},
                   [a = Var(a), idx = std::move(idx)](const Tensor& g) mutable {
                     if (!a.requires_grad()) return;
                     Tensor& ag = a.grad_ref();
                     for (std::size_t r = 0; r < idx.size(); ++r) {
                       auto dst = ag.row(idx[r]);
                       const auto src = g.row(r);
                       for (std::size_t c = 0; c < dst.size(); ++c)
                         dst[c] += src[c];
                     }
                   });
}

Var scatter_rows(const Var& base, std::vector<Index> idx, const Var& rows) {
  std::vector<char> seen;
  Tensor y = scatter_values(base, idx, rows, seen);
  return Var::make(
      std::move(y), {base, rows},
      [base = Var(base), rows = Var(rows), idx = std::move(idx),
       seen = std::move(seen)](const Tensor& g) mutable {
        if (base.requires_grad()) {
          Tensor& bg = base.grad_ref();
          for (std::size_t r = 0; r < g.rows(); ++r) {
            if (seen[r]) continue;  // overwritten rows get no base grad
            auto dst = bg.row(r);
            const auto src = g.row(r);
            for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
          }
        }
        if (rows.requires_grad()) {
          Tensor& rg = rows.grad_ref();
          for (std::size_t r = 0; r < idx.size(); ++r) {
            auto dst = rg.row(r);
            const auto src = g.row(idx[r]);
            for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
          }
        }
      });
}

Var segment_sum(const Var& a, std::vector<Index> seg,
                std::size_t num_segments) {
  Tensor y = segment_values(a, nullptr, seg, num_segments);
  return Var::make(std::move(y), {a},
                   [a = Var(a), seg = std::move(seg)](const Tensor& g) mutable {
                     if (!a.requires_grad()) return;
                     Tensor& ag = a.grad_ref();
                     for (std::size_t r = 0; r < seg.size(); ++r) {
                       auto dst = ag.row(r);
                       const auto src = g.row(seg[r]);
                       for (std::size_t c = 0; c < dst.size(); ++c)
                         dst[c] += src[c];
                     }
                   });
}

Var gather_rows(const Var& a, std::span<const Index> idx) {
  if (!grad_disabled()) return gather_rows(a, owned(idx));
  return Var(gather_values(a, idx));
}

Var scatter_rows(const Var& base, std::span<const Index> idx,
                 const Var& rows) {
  if (!grad_disabled()) return scatter_rows(base, owned(idx), rows);
  std::vector<char> seen;
  return Var(scatter_values(base, idx, rows, seen));
}

Var segment_sum(const Var& a, std::span<const Index> seg,
                std::size_t num_segments) {
  if (!grad_disabled()) return segment_sum(a, owned(seg), num_segments);
  return Var(segment_values(a, nullptr, seg, num_segments));
}

Var segment_sum(const Var& a, std::span<const Index> rows,
                std::span<const Index> seg, std::size_t num_segments) {
  if (rows.size() != seg.size())
    throw std::invalid_argument("segment_sum: one row per segment id");
  Tensor y = segment_values(a, rows.data(), seg, num_segments);
  if (grad_disabled()) return Var(std::move(y));
  return Var::make(std::move(y), {a},
                   [a = Var(a), rows = owned(rows),
                    seg = owned(seg)](const Tensor& g) mutable {
                     if (!a.requires_grad()) return;
                     Tensor& ag = a.grad_ref();
                     for (std::size_t i = 0; i < seg.size(); ++i) {
                       auto dst = ag.row(rows[i]);
                       const auto src = g.row(seg[i]);
                       for (std::size_t c = 0; c < dst.size(); ++c)
                         dst[c] += src[c];
                     }
                   });
}

Var concat_cols(const Var& a, const Var& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("concat_cols: row count mismatch");
  const std::size_t ca = a.cols(), cb = b.cols();
  Tensor y = TensorPool::acquire_uninit(a.rows(), ca + cb);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const auto ra = a.value().row(r);
    const auto rb = b.value().row(r);
    auto ry = y.row(r);
    std::copy(ra.begin(), ra.end(), ry.begin());
    std::copy(rb.begin(), rb.end(), ry.begin() + static_cast<std::ptrdiff_t>(ca));
  }
  return Var::make(std::move(y), {a, b},
                   [a = Var(a), b = Var(b), ca, cb](const Tensor& g) mutable {
                     for (std::size_t r = 0; r < g.rows(); ++r) {
                       const auto gr = g.row(r);
                       if (a.requires_grad()) {
                         auto dst = a.grad_ref().row(r);
                         for (std::size_t c = 0; c < ca; ++c) dst[c] += gr[c];
                       }
                       if (b.requires_grad()) {
                         auto dst = b.grad_ref().row(r);
                         for (std::size_t c = 0; c < cb; ++c)
                           dst[c] += gr[ca + c];
                       }
                     }
                   });
}

Var sum_all(const Var& a) {
  double s = 0.0;
  for (const double x : a.value().flat()) s += x;
  return Var::make(Tensor::scalar(s), {a}, [a = Var(a)](const Tensor& g) mutable {
    if (!a.requires_grad()) return;
    const double gs = g(0, 0);
    auto ag = a.grad_ref().flat();
    for (auto& x : ag) x += gs;
  });
}

Var mean_all(const Var& a) {
  const auto n = static_cast<double>(a.value().size());
  return scale(sum_all(a), 1.0 / n);
}

namespace {
Var pointwise_loss(const Var& pred, const Tensor& target,
                   double (*f)(double), double (*df)(double),
                   const char* name) {
  if (!pred.value().same_shape(target))
    throw std::invalid_argument(std::string(name) + ": shape mismatch");
  const auto pv = pred.value().flat();
  const auto tv = target.flat();
  const auto n = static_cast<double>(pv.size());
  double s = 0.0;
  for (std::size_t i = 0; i < pv.size(); ++i) s += f(pv[i] - tv[i]);
  return Var::make(Tensor::scalar(s / n), {pred},
                   [pred = Var(pred), target, df, n](const Tensor& g) mutable {
                     if (!pred.requires_grad()) return;
                     const double gs = g(0, 0) / n;
                     auto pg = pred.grad_ref().flat();
                     const auto pv2 = pred.value().flat();
                     const auto tv2 = target.flat();
                     for (std::size_t i = 0; i < pg.size(); ++i)
                       pg[i] += gs * df(pv2[i] - tv2[i]);
                   });
}
}  // namespace

Var mse_loss(const Var& pred, const Tensor& target) {
  return pointwise_loss(
      pred, target, [](double e) { return e * e; },
      [](double e) { return 2.0 * e; }, "mse_loss");
}

Var mae_loss(const Var& pred, const Tensor& target) {
  return pointwise_loss(
      pred, target, [](double e) { return std::abs(e); },
      [](double e) { return e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0); },
      "mae_loss");
}

Var huber_loss(const Var& pred, const Tensor& target, double delta) {
  if (delta <= 0.0) throw std::invalid_argument("huber_loss: delta <= 0");
  if (!pred.value().same_shape(target))
    throw std::invalid_argument("huber_loss: shape mismatch");
  const auto pv = pred.value().flat();
  const auto tv = target.flat();
  const auto n = static_cast<double>(pv.size());
  double s = 0.0;
  for (std::size_t i = 0; i < pv.size(); ++i) {
    const double e = std::abs(pv[i] - tv[i]);
    s += e <= delta ? 0.5 * e * e : delta * (e - 0.5 * delta);
  }
  return Var::make(Tensor::scalar(s / n), {pred},
                   [pred = Var(pred), target, delta, n](const Tensor& g) mutable {
                     if (!pred.requires_grad()) return;
                     const double gs = g(0, 0) / n;
                     auto pg = pred.grad_ref().flat();
                     const auto pv2 = pred.value().flat();
                     const auto tv2 = target.flat();
                     for (std::size_t i = 0; i < pg.size(); ++i) {
                       const double e = pv2[i] - tv2[i];
                       pg[i] += gs * std::clamp(e, -delta, delta);
                     }
                   });
}

}  // namespace rnx::nn
