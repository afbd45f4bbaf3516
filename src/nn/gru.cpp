#include "nn/gru.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"

namespace rnx::nn {

namespace {

/// A pooled copy of src.
Tensor pooled_copy(const Tensor& src) {
  Tensor copy = TensorPool::acquire_uninit(src.rows(), src.cols());
  const auto from = src.flat();
  std::copy(from.begin(), from.end(), copy.flat().begin());
  return copy;
}

/// dst (R x C) = rows idx of src (null: src's first R rows).
Tensor gather(const Tensor& src, const Index* idx, std::size_t rows) {
  Tensor dst = TensorPool::acquire_uninit(rows, src.cols());
  for (std::size_t i = 0; i < rows; ++i) {
    const auto from = src.row(idx != nullptr ? idx[i] : i);
    std::copy(from.begin(), from.end(), dst.row(i).begin());
  }
  return dst;
}

}  // namespace

GRUCell::GRUCell(std::size_t input_dim, std::size_t hidden_dim,
                 util::RngStream& rng, std::string name)
    : in_(input_dim), hid_(hidden_dim), name_(std::move(name)) {
  if (input_dim == 0 || hidden_dim == 0)
    throw std::invalid_argument("GRUCell: zero dimension");
  auto w = [&](std::size_t r, std::size_t c) {
    return Var(glorot_uniform(r, c, rng), /*requires_grad=*/true);
  };
  auto b = [&](std::size_t c) {
    return Var(Tensor::zeros(1, c), /*requires_grad=*/true);
  };
  w_.wxz = w(in_, hid_); w_.whz = w(hid_, hid_); w_.bz = b(hid_);
  w_.wxr = w(in_, hid_); w_.whr = w(hid_, hid_); w_.br = b(hid_);
  w_.wxn = w(in_, hid_); w_.whn = w(hid_, hid_); w_.bn = b(hid_);
}

Var GRUCell::step(const Var& x, const Var& h) const {
  if (x.cols() != in_ || h.cols() != hid_ || x.rows() != h.rows())
    throw std::invalid_argument(
        "GRUCell::step (" + name_ + "): shape mismatch: x " +
        std::to_string(x.rows()) + "x" + std::to_string(x.cols()) + ", h " +
        std::to_string(h.rows()) + "x" + std::to_string(h.cols()) +
        ", cell in=" + std::to_string(in_) + " hid=" + std::to_string(hid_));
  if (!fused_) return step_composed(x, h);
  Tensor u;
  if (grad_disabled() &&
      project(u, x.value().flat().data(), nullptr, x.rows())) {
    Tensor y = TensorPool::acquire_uninit(x.rows(), hid_);
    const bool stepped =
        step_kernel(y.flat().data(), nullptr, u.flat().data(), nullptr,
                    h.value().flat().data(), nullptr, x.rows());
    TensorPool::release(std::move(u));
    if (stepped) return Var(std::move(y));
    TensorPool::release(std::move(y));
  }
  return step_fused(x, h);
}

bool GRUCell::project_rows(double* u, const double* x, const Index* x_rows,
                           std::size_t rows) const {
  const auto& backend = kernels::active();
  return backend.gru_project != nullptr && backend.gru_step != nullptr &&
         backend.gru_project(u, x, x_rows, rows, in_, hid_, w_.weights());
}

bool GRUCell::project(Tensor& u, const double* x, const Index* x_rows,
                      std::size_t rows) const {
  const auto& backend = kernels::active();
  if (backend.gru_project == nullptr || backend.gru_step == nullptr)
    return false;
  Tensor out = TensorPool::acquire_uninit(rows, 3 * hid_);
  if (!project_rows(out.flat().data(), x, x_rows, rows)) {
    TensorPool::release(std::move(out));
    return false;
  }
  u = std::move(out);
  return true;
}

bool GRUCell::step_kernel(double* y, const Index* y_rows, const double* u,
                          const Index* u_rows, const double* h,
                          const Index* h_rows, std::size_t rows) const {
  const auto kernel = kernels::active().gru_step;
  return kernel != nullptr && kernel(y, y_rows, u, u_rows, h, h_rows, rows,
                                     hid_, w_.weights(), nullptr);
}

void GRUCell::check_indexed(const Var& src, std::span<const Index> elem_ids,
                            std::size_t hidden_rows,
                            std::span<const Index> path_rows) const {
  if (src.cols() != in_ || elem_ids.size() != path_rows.size())
    throw std::invalid_argument("GRUCell::step_indexed (" + name_ +
                                "): shape mismatch");
  for (const Index e : elem_ids)
    if (e >= src.rows())
      throw std::out_of_range("GRUCell::step_indexed: element id out of range");
  thread_local std::vector<char> seen;
  seen.assign(hidden_rows, 0);
  for (const Index r : path_rows) {
    if (r >= hidden_rows)
      throw std::out_of_range("GRUCell::step_indexed: path row out of range");
    if (seen[r] != 0)
      throw std::invalid_argument("GRUCell::step_indexed: duplicate path row");
    seen[r] = 1;
  }
}

void GRUCell::step_indexed(const Var& src, std::span<const Index> elem_ids,
                           Var& hidden,
                           std::span<const Index> path_rows) const {
  if (hidden.cols() != hid_)
    throw std::invalid_argument("GRUCell::step_indexed (" + name_ +
                                "): shape mismatch");
  check_indexed(src, elem_ids, hidden.rows(), path_rows);
  if (!grad_disabled())
    throw std::logic_error("GRUCell::step_indexed records no tape; a taped "
                           "path RNN runs through GruSweep");
  update_rows(src, elem_ids, nullptr, hidden, path_rows);
}

void GRUCell::update_rows(const Var& src, std::span<const Index> elem_ids,
                          const Tensor* src_u, Var& hidden,
                          std::span<const Index> path_rows) const {
  // Copy-on-write: the caller's other handles keep the old states.
  if (hidden.node().use_count() > 1) hidden = Var(pooled_copy(hidden.value()));
  step_rows(src.value(), src_u, elem_ids, hidden.mutable_value(), path_rows);
}

void GRUCell::step_rows(const Tensor& src, const Tensor* src_u,
                        std::span<const Index> elem_ids, Tensor& hv,
                        std::span<const Index> path_rows) const {
  const std::size_t rows = path_rows.size();
  if (fused_) {
    // Row i's u: src's projection at elem_ids[i], or row i of the rows
    // read, projected here.
    Tensor read_u;
    const bool projected =
        src_u != nullptr ||
        project(read_u, src.flat().data(), elem_ids.data(), rows);
    const bool stepped =
        projected &&
        step_kernel(hv.flat().data(), path_rows.data(),
                    (src_u != nullptr ? *src_u : read_u).flat().data(),
                    src_u != nullptr ? elem_ids.data() : nullptr,
                    hv.flat().data(), path_rows.data(), rows);
    TensorPool::release(std::move(read_u));
    if (stepped) return;
  }

  // No kernel for this backend or width: step the gathered rows, then
  // write them back in place.
  const Var h2 = step(Var(gather(src, elem_ids.data(), rows)),
                      Var(gather(hv, path_rows.data(), rows)));
  for (std::size_t i = 0; i < rows; ++i) {
    const auto from = h2.value().row(i);
    std::copy(from.begin(), from.end(), hv.row(path_rows[i]).begin());
  }
}

Var GRUCell::step_composed(const Var& x, const Var& h) const {
  if (x.cols() != in_ || h.cols() != hid_ || x.rows() != h.rows())
    throw std::invalid_argument("GRUCell::step_composed: shape mismatch");
  const Var z =
      sigmoid(add_bias(add(matmul(x, w_.wxz), matmul(h, w_.whz)), w_.bz));
  const Var r =
      sigmoid(add_bias(add(matmul(x, w_.wxr), matmul(h, w_.whr)), w_.br));
  const Var n = tanh_op(
      add_bias(add(matmul(x, w_.wxn), matmul(mul(r, h), w_.whn)), w_.bn));
  // h' = (1 - z) .* n + z .* h
  return add(mul(affine(z, -1.0, 1.0), n), mul(z, h));
}

namespace {

/// dst (R x H) initialized to the bias row broadcast over R rows.
void broadcast_bias(Tensor& dst, const Tensor& bias) {
  const double* bv = bias.row(0).data();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    double* row = dst.row(r).data();
    for (std::size_t c = 0; c < dst.cols(); ++c) row[c] = bv[c];
  }
}

/// dst (R x 2H) initialized to [bias_a | bias_b] broadcast over R rows.
void broadcast_bias2(Tensor& dst, const Tensor& bias_a,
                     const Tensor& bias_b) {
  const std::size_t h = bias_a.cols();
  const double* av = bias_a.row(0).data();
  const double* bv = bias_b.row(0).data();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    double* row = dst.row(r).data();
    for (std::size_t c = 0; c < h; ++c) row[c] = av[c];
    for (std::size_t c = 0; c < h; ++c) row[h + c] = bv[c];
  }
}

/// dst (R x (Ca+Cb)) = [a | b] column concatenation.
void concat2(Tensor& dst, const Tensor& a, const Tensor& b) {
  const std::size_t ca = a.cols(), cb = b.cols();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* row = dst.row(r).data();
    const double* ar = a.row(r).data();
    const double* br = b.row(r).data();
    for (std::size_t c = 0; c < ca; ++c) row[c] = ar[c];
    for (std::size_t c = 0; c < cb; ++c) row[ca + c] = br[c];
  }
}

/// dst ((in+hid) x 2H) = [[wxa|wxb]; [wha|whb]] — the stacked
/// concatenated z/r gate weight panel multiplying [x|h].
void build_zr_panel(Tensor& dst, const Tensor& wxa, const Tensor& wxb,
                    const Tensor& wha, const Tensor& whb) {
  const std::size_t h = wxa.cols();
  for (std::size_t r = 0; r < wxa.rows(); ++r) {
    double* d = dst.row(r).data();
    const double* a = wxa.row(r).data();
    const double* b = wxb.row(r).data();
    for (std::size_t c = 0; c < h; ++c) d[c] = a[c];
    for (std::size_t c = 0; c < h; ++c) d[h + c] = b[c];
  }
  for (std::size_t r = 0; r < wha.rows(); ++r) {
    double* d = dst.row(wxa.rows() + r).data();
    const double* a = wha.row(r).data();
    const double* b = whb.row(r).data();
    for (std::size_t c = 0; c < h; ++c) d[c] = a[c];
    for (std::size_t c = 0; c < h; ++c) d[h + c] = b[c];
  }
}

/// dst += the dst-shaped sub-block of src anchored at (row_off, col_off).
void add_block(Tensor& dst, const Tensor& src, std::size_t row_off,
               std::size_t col_off) {
  const std::size_t h = dst.cols();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    double* d = dst.row(r).data();
    const double* s = src.row(row_off + r).data() + col_off;
    for (std::size_t c = 0; c < h; ++c) d[c] += s[c];
  }
}

/// bias_grad (1 x H) += column sums of g's columns [off, off+H).
void colsum_block_acc(Tensor& bias_grad, const Tensor& g, std::size_t off) {
  const std::size_t h = bias_grad.cols();
  double* bg = bias_grad.row(0).data();
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const double* row = g.row(r).data() + off;
    for (std::size_t c = 0; c < h; ++c) bg[c] += row[c];
  }
}

/// bias_grad (1 x H) += column sums of g (R x H).
void colsum_acc(Tensor& bias_grad, const Tensor& g) {
  colsum_block_acc(bias_grad, g, 0);
}

/// Composed forward of one step over contiguous rows: y, and z, r and n
/// for the backward (all R x H, row i contiguous, owned by the caller).
void composed_forward(const GruParams& p, double* y, const Tensor& xv,
                      const Tensor& hv, double* z, double* r, double* n) {
  const std::size_t rows = xv.rows(), in = xv.cols(), hid = hv.cols();
  const auto& backend = kernels::active();
  // z/r gate pre-activations in one (R x 2H) panel and one kernel call:
  // [x|h] times the stacked concatenated weights [[Wxz|Wxr];[Whz|Whr]].
  // One quarter the kernel launches of the per-gate formulation, and the
  // panel is written in a single pass.
  Tensor xh = TensorPool::acquire_uninit(rows, in + hid);
  concat2(xh, xv, hv);
  Tensor w_zr = TensorPool::acquire_uninit(in + hid, 2 * hid);
  build_zr_panel(w_zr, p.wxz.value(), p.wxr.value(), p.whz.value(),
                 p.whr.value());
  Tensor a_zr = TensorPool::acquire_uninit(rows, 2 * hid);
  broadcast_bias2(a_zr, p.bz.value(), p.br.value());
  matmul_acc(a_zr, xh, w_zr);
  TensorPool::release(std::move(xh));
  TensorPool::release(std::move(w_zr));
  Tensor an = TensorPool::acquire_uninit(rows, hid);
  broadcast_bias(an, p.bn.value());
  matmul_acc(an, xv, p.wxn.value());

  // z and r gates, then the reset-scaled hidden state feeding the
  // candidate matmul — one fused backend pass.
  Tensor rh = TensorPool::acquire_uninit(rows, hid);
  backend.gru_gates(z, r, rh.flat().data(), a_zr.flat().data(),
                    hv.flat().data(), rows, hid);
  matmul_acc(an, rh, p.whn.value());

  // Candidate + state blend fused: n = tanh(an), y = (1-z) n + z h.
  backend.gru_blend(n, y, an.flat().data(), z, hv.flat().data(),
                    rows * hid);
  TensorPool::release(std::move(a_zr));
  TensorPool::release(std::move(an));
  TensorPool::release(std::move(rh));
}

/// Forward of one step over `rows` rows that saves z, r and n (row i
/// contiguous) for the backward: row i reads x row x_rows[i] and h row
/// h_rows[i] (null: row i) and writes y row i, contiguous.  Given u, xv
/// projected row for row (GRUCell::project), the backend's whole-step
/// kernel reads u's rows at x_rows; without one, or when the kernel
/// declines, the composed passes run over gathered rows.
void forward_saving(const GruParams& p, double* y, const Tensor* u,
                    const Tensor& xv, const Index* x_rows, const Tensor& hv,
                    const Index* h_rows, std::size_t rows, double* z,
                    double* r, double* n) {
  if (rows == 0) return;
  const auto kernel = kernels::active().gru_step;
  const kernels::GruActs save{z, r, n};
  if (u != nullptr && kernel != nullptr &&
      kernel(y, nullptr, u->flat().data(), x_rows, hv.flat().data(), h_rows,
             rows, hv.cols(), p.weights(), &save))
    return;
  if (x_rows == nullptr && h_rows == nullptr) {
    composed_forward(p, y, xv, hv, z, r, n);
    return;
  }
  Tensor xs = gather(xv, x_rows, rows);
  Tensor hs = gather(hv, h_rows, rows);
  composed_forward(p, y, xs, hs, z, r, n);
  TensorPool::release(std::move(xs));
  TensorPool::release(std::move(hs));
}

/// The composed backward of one step over contiguous rows: adds the
/// parameter grads and, when xg / hg are non-null, dL/dx and dL/dh into
/// them.  z, r and n are the saved activations, row i contiguous.
void composed_backward(GruParams& p, const Tensor& g, const Tensor& xval,
                       const Tensor& hval, const double* z, const double* r,
                       const double* n, Tensor* xg, Tensor* hg) {
  const std::size_t nrows = g.rows(), hid = g.cols();
  const std::size_t in_dim = xval.cols();

  // dan = g (1-z) (1-n^2);  daz = g (h-n) z (1-z);
  // rh2  = r h (recomputed — cheaper than storing a 4th tensor).
  // daz lands in the left block of the (R x 2H) d_zr panel so the
  // z/r gate grads flow through concatenated matmuls.
  Tensor dan = TensorPool::acquire_uninit(nrows, hid);
  Tensor d_zr = TensorPool::acquire_uninit(nrows, 2 * hid);
  Tensor rh2 = TensorPool::acquire_uninit(nrows, hid);
  for (std::size_t row = 0; row < nrows; ++row) {
    const double* grow = g.row(row).data();
    const double* zrow = z + row * hid;
    const double* rrow = r + row * hid;
    const double* nrow = n + row * hid;
    const double* hrow = hval.row(row).data();
    double* danrow = dan.row(row).data();
    double* dzr = d_zr.row(row).data();
    double* rhrow = rh2.row(row).data();
    for (std::size_t c = 0; c < hid; ++c) {
      danrow[c] = grow[c] * (1.0 - zrow[c]) * (1.0 - nrow[c] * nrow[c]);
      dzr[c] = grow[c] * (hrow[c] - nrow[c]) * zrow[c] * (1.0 - zrow[c]);
      rhrow[c] = rrow[c] * hrow[c];
    }
  }

  // Candidate-gate parameter grads.
  if (p.bn.requires_grad()) colsum_acc(p.bn.grad_ref(), dan);
  if (p.wxn.requires_grad()) matmul_tn_acc(p.wxn.grad_ref(), xval, dan);
  if (p.whn.requires_grad()) matmul_tn_acc(p.whn.grad_ref(), rh2, dan);

  // drh = dan Whn^T routes the candidate grad into r and h;
  // dar = (drh h) r (1-r) fills the right block of d_zr.
  Tensor drh = TensorPool::acquire(nrows, hid);
  matmul_nt_acc(drh, dan, p.whn.value());
  for (std::size_t row = 0; row < nrows; ++row) {
    const double* drhrow = drh.row(row).data();
    const double* rrow = r + row * hid;
    const double* hrow = hval.row(row).data();
    double* dzr = d_zr.row(row).data() + hid;
    for (std::size_t c = 0; c < hid; ++c)
      dzr[c] = drhrow[c] * hrow[c] * rrow[c] * (1.0 - rrow[c]);
  }

  if (p.bz.requires_grad()) colsum_block_acc(p.bz.grad_ref(), d_zr, 0);
  if (p.br.requires_grad()) colsum_block_acc(p.br.grad_ref(), d_zr, hid);

  // Stacked z/r weight grads: [x|h]^T d_zr is one ((in+hid) x 2H)
  // panel holding all four gate-weight gradients as sub-blocks.
  {
    Tensor xh2 = TensorPool::acquire_uninit(nrows, in_dim + hid);
    concat2(xh2, xval, hval);
    Tensor dw = TensorPool::acquire(in_dim + hid, 2 * hid);
    matmul_tn_acc(dw, xh2, d_zr);
    if (p.wxz.requires_grad()) add_block(p.wxz.grad_ref(), dw, 0, 0);
    if (p.wxr.requires_grad()) add_block(p.wxr.grad_ref(), dw, 0, hid);
    if (p.whz.requires_grad()) add_block(p.whz.grad_ref(), dw, in_dim, 0);
    if (p.whr.requires_grad()) add_block(p.whr.grad_ref(), dw, in_dim, hid);
    TensorPool::release(std::move(xh2));
    TensorPool::release(std::move(dw));
  }

  if (xg != nullptr || hg != nullptr) {
    // d[x|h] = d_zr [[Wxz|Wxr];[Whz|Whr]]^T in one call, split back
    // into the input gradients.
    Tensor wzr2 = TensorPool::acquire_uninit(in_dim + hid, 2 * hid);
    build_zr_panel(wzr2, p.wxz.value(), p.wxr.value(), p.whz.value(),
                   p.whr.value());
    Tensor dxh = TensorPool::acquire(nrows, in_dim + hid);
    matmul_nt_acc(dxh, d_zr, wzr2);
    if (xg != nullptr) {
      add_block(*xg, dxh, 0, 0);
      matmul_nt_acc(*xg, dan, p.wxn.value());
    }
    if (hg != nullptr) {
      add_block(*hg, dxh, 0, in_dim);
      const auto gf = g.flat();
      const auto drhf = drh.flat();
      auto hgf = hg->flat();
      // dh += g z (direct blend term) + drh r (through the reset).
      for (std::size_t i = 0; i < hgf.size(); ++i)
        hgf[i] += gf[i] * z[i] + drhf[i] * r[i];
    }
    TensorPool::release(std::move(wzr2));
    TensorPool::release(std::move(dxh));
  }

  TensorPool::release(std::move(dan));
  TensorPool::release(std::move(d_zr));
  TensorPool::release(std::move(rh2));
  TensorPool::release(std::move(drh));
}

/// dst (in x 3H) = [Wxz | Wxr | Wxn], the input weights side by side.
void build_x_panel(Tensor& dst, const GruParams& p) {
  const std::size_t h = p.wxz.cols();
  const Tensor* parts[] = {&p.wxz.value(), &p.wxr.value(), &p.wxn.value()};
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    double* d = dst.row(r).data();
    for (std::size_t k = 0; k < 3; ++k) {
      const double* w = parts[k]->row(r).data();
      for (std::size_t c = 0; c < h; ++c) d[k * h + c] = w[c];
    }
  }
}

/// The x side of the backward over x's rows, from du (rows x 3H): row j
/// holds [dz | dr | dn] summed over every stepped row that read x row j
/// (kernels::Backend::gru_step_backward).  Adds du [Wxz|Wxr|Wxn]^T into
/// xg when it is non-null, x^T du into the three input-weight grads (one
/// in x 3H panel) and du's column sums into the three bias grads.
void x_side_backward(GruParams& p, const Tensor& du, const Tensor& x,
                     Tensor* xg) {
  const std::size_t in = x.cols(), hid = du.cols() / 3;
  if (xg != nullptr) {
    Tensor w = TensorPool::acquire_uninit(in, 3 * hid);
    build_x_panel(w, p);
    matmul_nt_acc(*xg, du, w);
    TensorPool::release(std::move(w));
  }
  Tensor dw = TensorPool::acquire(in, 3 * hid);
  matmul_tn_acc(dw, x, du);
  if (p.wxz.requires_grad()) add_block(p.wxz.grad_ref(), dw, 0, 0);
  if (p.wxr.requires_grad()) add_block(p.wxr.grad_ref(), dw, 0, hid);
  if (p.wxn.requires_grad()) add_block(p.wxn.grad_ref(), dw, 0, 2 * hid);
  TensorPool::release(std::move(dw));
  if (p.bz.requires_grad()) colsum_block_acc(p.bz.grad_ref(), du, 0);
  if (p.br.requires_grad()) colsum_block_acc(p.br.grad_ref(), du, hid);
  if (p.bn.requires_grad()) colsum_block_acc(p.bn.grad_ref(), du, 2 * hid);
}

/// The activations a taped step or sweep keeps for its backward, one row
/// per stepped row; returned to the pool with the tape.
struct StepTape {
  Tensor z, r, n;

  StepTape() = default;
  StepTape(std::size_t rows, std::size_t hid)
      : z(TensorPool::acquire_uninit(rows, hid)),
        r(TensorPool::acquire_uninit(rows, hid)),
        n(TensorPool::acquire_uninit(rows, hid)) {}
  StepTape(const StepTape&) = default;
  StepTape(StepTape&&) = default;
  StepTape& operator=(const StepTape&) = default;
  StepTape& operator=(StepTape&&) = default;
  ~StepTape() {
    TensorPool::release(std::move(z));
    TensorPool::release(std::move(r));
    TensorPool::release(std::move(n));
  }

  /// Row `row` of each, for a kernel to fill or read.
  [[nodiscard]] kernels::GruActs at(std::size_t row) {
    const std::size_t off = row * z.cols();
    return {z.flat().data() + off, r.flat().data() + off,
            n.flat().data() + off};
  }
};

/// The composed backward of one sweep position over `rows` rows: row i
/// stepped path row path_rows[i] from h row h_rows[i], reading x row
/// ids[i].  Its dL/dy is carry row path_rows[i] + g row i, and its dL/dh
/// replaces that carry row; dL/dx is added into xg's row ids[i] when xg
/// is non-null.  The route of a backend without the backward kernel for
/// this width.
void composed_position_backward(GruParams& p, Tensor& carry,
                                const Index* path_rows, const double* g,
                                const Tensor& x, const Index* ids, Tensor* xg,
                                const Tensor& h, const Index* h_rows,
                                std::size_t rows, const kernels::GruActs& a) {
  const std::size_t hid = carry.cols();
  Tensor gy = TensorPool::acquire_uninit(rows, hid);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* c = carry.row(path_rows[i]).data();
    const double* gi = g + i * hid;
    double* y = gy.row(i).data();
    for (std::size_t j = 0; j < hid; ++j) y[j] = c[j] + gi[j];
  }
  Tensor xs = gather(x, ids, rows);
  Tensor hs = gather(h, h_rows, rows);
  Tensor dx, dh = TensorPool::acquire(rows, hid);
  if (xg != nullptr) dx = TensorPool::acquire(rows, x.cols());
  composed_backward(p, gy, xs, hs, a.z, a.r, a.n, xg != nullptr ? &dx : nullptr,
                    &dh);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto from = dh.row(i);
    std::copy(from.begin(), from.end(), carry.row(path_rows[i]).begin());
  }
  if (xg != nullptr)  // rows ids += dx, i ascending
    for (std::size_t i = 0; i < rows; ++i) {
      auto to = xg->row(ids[i]);
      const auto from = dx.row(i);
      for (std::size_t c = 0; c < to.size(); ++c) to[c] += from[c];
    }
  for (Tensor* t : {&gy, &xs, &hs, &dx, &dh}) TensorPool::release(std::move(*t));
}

}  // namespace

kernels::GruWeights GruParams::weights() const {
  const auto p = [](const Var& v) { return v.value().flat().data(); };
  return {p(wxz), p(whz), p(bz), p(wxr), p(whr), p(br),
          p(wxn), p(whn), p(bn)};
}

kernels::GruGrads GruParams::grads() {
  const auto p = [](Var& v) { return v.grad_ref().flat().data(); };
  return {p(wxz), p(whz), p(bz), p(wxr), p(whr), p(br),
          p(wxn), p(whn), p(bn)};
}

Var GRUCell::step_fused(const Var& x, const Var& h) const {
  StepTape tape(x.rows(), hid_);
  Tensor y = TensorPool::acquire_uninit(x.rows(), hid_);
  const kernels::GruActs saved = tape.at(0);
  Tensor u;
  const bool projected =
      project(u, x.value().flat().data(), nullptr, x.rows());
  forward_saving(w_, y.flat().data(), projected ? &u : nullptr, x.value(),
                 nullptr, h.value(), nullptr, x.rows(), saved.z, saved.r,
                 saved.n);
  TensorPool::release(std::move(u));
  if (grad_disabled()) return Var(std::move(y));

  // One tape node for the whole step.
  return Var::make(
      std::move(y),
      {x, h, w_.wxz, w_.whz, w_.bz, w_.wxr, w_.whr, w_.br, w_.wxn, w_.whn,
       w_.bn},
      [x = Var(x), h = Var(h), p = w_,
       tape = std::move(tape)](const Tensor& g) mutable {
        const kernels::GruActs a = tape.at(0);
        Tensor* xg = x.requires_grad() ? &x.grad_ref() : nullptr;
        Tensor* hg = h.requires_grad() ? &h.grad_ref() : nullptr;
        const auto kernel = kernels::active().gru_step_backward;
        Tensor du;
        if (kernel != nullptr) du = TensorPool::acquire(g.rows(), 3 * g.cols());
        if (kernel != nullptr &&
            kernel(du.flat().data(), nullptr,
                   hg != nullptr ? hg->flat().data() : nullptr, nullptr,
                   g.flat().data(), h.value().flat().data(), nullptr, a.z,
                   a.r, a.n, g.rows(), g.cols(), p.weights(), p.grads()))
          x_side_backward(p, du, x.value(), xg);
        else
          composed_backward(p, g, x.value(), h.value(), a.z, a.r, a.n, xg, hg);
        TensorPool::release(std::move(du));
      });
}

std::vector<std::pair<std::string, Var>> GRUCell::named_params() const {
  return {{name_ + ".wxz", w_.wxz}, {name_ + ".whz", w_.whz},
          {name_ + ".bz", w_.bz},   {name_ + ".wxr", w_.wxr},
          {name_ + ".whr", w_.whr}, {name_ + ".br", w_.br},
          {name_ + ".wxn", w_.wxn}, {name_ + ".whn", w_.whn},
          {name_ + ".bn", w_.bn}};
}

// ---- the path RNN's sweep ---------------------------------------------------

/// What a taped fused sweep records: per stepped row (entry k, arena row
/// P + k) the path row it stepped, the x row it read and the arena row
/// its h came from, and its z, r and n.
struct GruSweep::Tape {
  struct Position {
    std::size_t offset;  ///< first entry
    std::size_t rows;
    std::size_t source;  ///< index into sources
  };

  std::size_t paths = 0;
  std::vector<Position> positions;
  std::vector<Index> path_rows, elem_ids, h_rows;
  std::vector<Index> latest;  ///< per path: arena row of its current state
  StepTape acts;
  const Tensor* arena = nullptr;  ///< the node's value
  Var initial;
  std::vector<Var> sources;
  GruParams params;

  void backward(const Tensor& g);
};

GruSweep::GruSweep(const GRUCell& cell, const Var& initial,
                   const std::vector<Var>& sources, std::size_t entries)
    : cell_(cell), hidden_(initial) {
  if (initial.cols() != cell.hid_)
    throw std::invalid_argument("GruSweep (" + cell.name_ +
                                "): initial state width mismatch");
  for (const Var& s : sources) {
    if (!s.defined()) continue;
    if (s.cols() != cell.in_)
      throw std::invalid_argument("GruSweep (" + cell.name_ +
                                  "): source width mismatch");
    sources_.push_back(s);
  }
  if (!cell.fused_) return;
  // Every stepped row reads a row of a fixed source: project each source
  // row once for the whole sweep.
  for (const Var& s : sources_) {
    Tensor u;
    if (!cell.project(u, s.value().flat().data(), nullptr, s.rows())) break;
    projected_.push_back(std::move(u));
  }
  if (grad_disabled()) return;

  const std::size_t paths = initial.rows(), hid = cell.hid_;
  auto tape = std::make_shared<Tape>();
  tape->paths = paths;
  tape->path_rows.reserve(entries);
  tape->elem_ids.reserve(entries);
  tape->h_rows.reserve(entries);
  tape->latest.resize(paths);
  std::iota(tape->latest.begin(), tape->latest.end(), Index{0});
  tape->acts = StepTape(entries, hid);
  tape->initial = initial;
  tape->sources = sources_;
  tape->params = cell.w_;

  Tensor arena = TensorPool::acquire_uninit(paths + entries, hid);
  const auto init = initial.value().flat();
  std::copy(init.begin(), init.end(), arena.flat().begin());
  std::vector<Var> parents{initial};
  parents.insert(parents.end(), sources_.begin(), sources_.end());
  const GruParams& w = cell.w_;
  parents.insert(parents.end(), {w.wxz, w.whz, w.bz, w.wxr, w.whr, w.br,
                                 w.wxn, w.whn, w.bn});
  hidden_ = Var::make(std::move(arena), std::move(parents),
                      [tape](const Tensor& g) { tape->backward(g); });
  tape->arena = &hidden_.value();
  tape_ = std::move(tape);
}

GruSweep::~GruSweep() {
  for (Tensor& u : projected_) TensorPool::release(std::move(u));
}

std::size_t GruSweep::source_index(const Var& src) const {
  const auto source = std::find_if(
      sources_.begin(), sources_.end(),
      [&](const Var& s) { return s.same_node(src); });
  if (source == sources_.end())
    throw std::invalid_argument("GruSweep::step: src is not a source");
  return static_cast<std::size_t>(source - sources_.begin());
}

void GruSweep::step(const Var& src, std::span<const Index> elem_ids,
                    std::span<const Index> path_rows) {
  (void)source_index(src);  // a foreign src is reported before bad ids
  cell_.check_indexed(src, elem_ids,
                      tape_ == nullptr ? hidden_.rows() : tape_->paths,
                      path_rows);
  step_unchecked(src, elem_ids, path_rows);
}

void GruSweep::step_unchecked(const Var& src, std::span<const Index> elem_ids,
                              std::span<const Index> path_rows) {
  const std::size_t k = source_index(src);
  const Tensor* u = k < projected_.size() ? &projected_[k] : nullptr;
  if (tape_ == nullptr) {
    if (grad_disabled()) {
      cell_.update_rows(src, elem_ids, u, hidden_, path_rows);
    } else {
      hidden_ = scatter_rows(
          hidden_, path_rows,
          cell_.step_composed(gather_rows(src, elem_ids),
                              gather_rows(hidden_, path_rows)));
    }
    last_ids_ = elem_ids;
    last_rows_ = path_rows;
    return;
  }

  Tape& t = *tape_;
  const std::size_t off = t.path_rows.size(), rows = path_rows.size();
  if (rows > t.acts.z.rows() - off)
    throw std::invalid_argument("GruSweep::step: more rows than entries");
  last_ids_ = elem_ids;
  last_rows_ = path_rows;
  for (std::size_t i = 0; i < rows; ++i) {
    const Index r = path_rows[i];
    t.path_rows.push_back(r);
    t.elem_ids.push_back(elem_ids[i]);
    t.h_rows.push_back(t.latest[r]);
    t.latest[r] = static_cast<Index>(t.paths + off + i);
  }
  t.positions.push_back({off, rows, k});
  Tensor& arena = hidden_.mutable_value();
  const kernels::GruActs acts = t.acts.at(off);
  forward_saving(t.params, arena.row(t.paths + off).data(), u, src.value(),
                 t.elem_ids.data() + off, arena, t.h_rows.data() + off, rows,
                 acts.z, acts.r, acts.n);
}

Var GruSweep::messages(std::size_t num_elems) const {
  if (tape_ == nullptr)
    return segment_sum(hidden_, last_rows_, last_ids_, num_elems);
  // The last step's rows are the arena's last ones.
  thread_local std::vector<Index> rows;
  rows.resize(last_rows_.size());
  std::iota(rows.begin(), rows.end(),
            static_cast<Index>(tape_->paths + tape_->path_rows.size() -
                               rows.size()));
  return segment_sum(hidden_, rows, last_ids_, num_elems);
}

Var GruSweep::states() const {
  if (tape_ == nullptr) return hidden_;
  return gather_rows(hidden_, std::span<const Index>(tape_->latest));
}

void GruSweep::Tape::backward(const Tensor& g) {
  const std::size_t hid = g.cols();
  // carry row r: dL/dh of path r's state before the position being undone.
  // It starts from the grad of the initial rows (non-zero only for paths
  // no position steps) and takes each step's dh in turn.
  Tensor carry = TensorPool::acquire_uninit(paths, hid);
  std::copy(g.flat().begin(),
            g.flat().begin() + static_cast<std::ptrdiff_t>(paths * hid),
            carry.flat().begin());
  // With the backend's backward kernel, each source's DU: per source row,
  // the pre-activation grads of every stepped row that read it, summed;
  // its x side runs once per source row after the last position.
  auto kernel = kernels::active().gru_step_backward;
  std::vector<Tensor> du(sources.size());
  for (auto pos = positions.rbegin(); pos != positions.rend(); ++pos) {
    if (pos->rows == 0) continue;
    const Index* rows = path_rows.data() + pos->offset;
    const Index* ids = elem_ids.data() + pos->offset;
    const Index* hr = h_rows.data() + pos->offset;
    // A stepped row's grad: what later steps sent back through its state
    // (its carry row), then its messages and the final-state reads (the
    // arena rows' grad).
    const double* ga = g.row(paths + pos->offset).data();
    const kernels::GruActs a = acts.at(pos->offset);
    Var& src = sources[pos->source];
    if (kernel != nullptr) {
      Tensor& d = du[pos->source];
      if (d.empty()) d = TensorPool::acquire(src.rows(), 3 * hid);
      if (kernel(d.flat().data(), ids, carry.flat().data(), rows, ga,
                 arena->flat().data(), hr, a.z, a.r, a.n, pos->rows, hid,
                 params.weights(), params.grads()))
        continue;
      kernel = nullptr;  // no kernel for this width: no position takes it
    }
    composed_position_backward(
        params, carry, rows, ga, src.value(), ids,
        src.requires_grad() ? &src.grad_ref() : nullptr, *arena, hr,
        pos->rows, a);
  }
  for (std::size_t k = 0; k < du.size(); ++k) {
    if (kernel != nullptr && !du[k].empty())
      x_side_backward(params, du[k], sources[k].value(),
                      sources[k].requires_grad() ? &sources[k].grad_ref()
                                                 : nullptr);
    TensorPool::release(std::move(du[k]));
  }
  if (initial.requires_grad()) {
    auto to = initial.grad_ref().flat();
    const auto from = carry.flat();
    for (std::size_t i = 0; i < to.size(); ++i) to[i] += from[i];
  }
  TensorPool::release(std::move(carry));
}

}  // namespace rnx::nn
