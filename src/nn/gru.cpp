#include "nn/gru.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"

namespace rnx::nn {

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
  wxz_ = w(in_, hid_); whz_ = w(hid_, hid_); bz_ = b(hid_);
  wxr_ = w(in_, hid_); whr_ = w(hid_, hid_); br_ = b(hid_);
  wxn_ = w(in_, hid_); whn_ = w(hid_, hid_); bn_ = b(hid_);
}

Var GRUCell::step(const Var& x, const Var& h) const {
  if (x.cols() != in_ || h.cols() != hid_ || x.rows() != h.rows())
    throw std::invalid_argument(
        "GRUCell::step (" + name_ + "): shape mismatch: x " +
        std::to_string(x.rows()) + "x" + std::to_string(x.cols()) + ", h " +
        std::to_string(h.rows()) + "x" + std::to_string(h.cols()) +
        ", cell in=" + std::to_string(in_) + " hid=" + std::to_string(hid_));
  if (!fused_) return step_composed(x, h);
  if (grad_disabled()) {
    Tensor y = TensorPool::acquire_uninit(x.rows(), hid_);
    if (step_kernel(y.flat().data(), x.value().flat().data(), nullptr,
                    h.value().flat().data(), nullptr, x.rows()))
      return Var(std::move(y));
    TensorPool::release(std::move(y));
  }
  return step_fused(x, h);
}

bool GRUCell::step_kernel(double* y, const double* x, const Index* x_rows,
                          const double* h, const Index* h_rows,
                          std::size_t rows) const {
  const auto kernel = kernels::active().gru_step;
  if (kernel == nullptr) return false;
  const auto p = [](const Var& v) { return v.value().flat().data(); };
  const kernels::GruWeights w{p(wxz_), p(whz_), p(bz_), p(wxr_), p(whr_),
                              p(br_),  p(wxn_), p(whn_), p(bn_)};
  return kernel(y, x, x_rows, h, h_rows, rows, in_, hid_, w);
}

Var GRUCell::step_indexed(const Var& src, std::span<const Index> elem_ids,
                          Var& hidden,
                          std::span<const Index> path_rows) const {
  if (!grad_disabled()) {
    Var h2 = step(gather_rows(src, elem_ids), gather_rows(hidden, path_rows));
    hidden = scatter_rows(hidden, path_rows, h2);
    return h2;
  }
  if (src.cols() != in_ || hidden.cols() != hid_ ||
      elem_ids.size() != path_rows.size())
    throw std::invalid_argument("GRUCell::step_indexed (" + name_ +
                                "): shape mismatch");
  // The guards gather_rows and scatter_rows apply on the taped path.
  for (const Index e : elem_ids)
    if (e >= src.rows())
      throw std::out_of_range("GRUCell::step_indexed: element id out of range");
  thread_local std::vector<char> seen;
  seen.assign(hidden.rows(), 0);
  for (const Index r : path_rows) {
    if (r >= hidden.rows())
      throw std::out_of_range("GRUCell::step_indexed: path row out of range");
    if (seen[r] != 0)
      throw std::invalid_argument("GRUCell::step_indexed: duplicate path row");
    seen[r] = 1;
  }

  // Copy-on-write: the caller's other handles keep the old states.
  if (hidden.node().use_count() > 1) {
    Tensor copy = TensorPool::acquire_uninit(hidden.rows(), hid_);
    const auto from = hidden.value().flat();
    std::copy(from.begin(), from.end(), copy.flat().begin());
    hidden = Var(std::move(copy));
  }
  Tensor& hv = hidden.mutable_value();
  const std::size_t rows = path_rows.size();
  if (fused_ && step_kernel(hv.flat().data(), src.value().flat().data(),
                            elem_ids.data(), hv.flat().data(),
                            path_rows.data(), rows))
    return Var();

  // No kernel for this backend or width: step the gathered rows, then
  // write them back in place.
  const Var h2 = step(gather_rows(src, elem_ids), gather_rows(hidden, path_rows));
  for (std::size_t i = 0; i < rows; ++i) {
    const auto from = h2.value().row(i);
    std::copy(from.begin(), from.end(), hv.row(path_rows[i]).begin());
  }
  return Var();
}

Var GRUCell::step_composed(const Var& x, const Var& h) const {
  if (x.cols() != in_ || h.cols() != hid_ || x.rows() != h.rows())
    throw std::invalid_argument("GRUCell::step_composed: shape mismatch");
  const Var z =
      sigmoid(add_bias(add(matmul(x, wxz_), matmul(h, whz_)), bz_));
  const Var r =
      sigmoid(add_bias(add(matmul(x, wxr_), matmul(h, whr_)), br_));
  const Var n = tanh_op(
      add_bias(add(matmul(x, wxn_), matmul(mul(r, h), whn_)), bn_));
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

}  // namespace

Var GRUCell::step_fused(const Var& x, const Var& h) const {
  const Tensor& xv = x.value();
  const Tensor& hv = h.value();
  const std::size_t rows = xv.rows();

  // z/r gate pre-activations in one (R x 2H) panel and one kernel call:
  // [x|h] times the stacked concatenated weights [[Wxz|Wxr];[Whz|Whr]].
  // One quarter the kernel launches of the per-gate formulation, and the
  // panel is written in a single pass.
  Tensor xh = TensorPool::acquire_uninit(rows, in_ + hid_);
  concat2(xh, xv, hv);
  Tensor w_zr = TensorPool::acquire_uninit(in_ + hid_, 2 * hid_);
  build_zr_panel(w_zr, wxz_.value(), wxr_.value(), whz_.value(),
                 whr_.value());
  Tensor a_zr = TensorPool::acquire_uninit(rows, 2 * hid_);
  broadcast_bias2(a_zr, bz_.value(), br_.value());
  matmul_acc(a_zr, xh, w_zr);
  TensorPool::release(std::move(xh));
  TensorPool::release(std::move(w_zr));
  Tensor an = TensorPool::acquire_uninit(rows, hid_);
  broadcast_bias(an, bn_.value());
  matmul_acc(an, xv, wxn_.value());

  // z and r gates, then the reset-scaled hidden state feeding the
  // candidate matmul — one fused backend pass (vector sigmoid on SIMD
  // backends; this is the hottest elementwise site in serving).
  const auto& backend = kernels::active();
  Tensor z = TensorPool::acquire_uninit(rows, hid_);
  Tensor r = TensorPool::acquire_uninit(rows, hid_);
  Tensor rh = TensorPool::acquire_uninit(rows, hid_);
  backend.gru_gates(z.flat().data(), r.flat().data(), rh.flat().data(),
                    a_zr.flat().data(), hv.flat().data(), rows, hid_);
  matmul_acc(an, rh, whn_.value());

  // Candidate + state blend fused: n = tanh(an), y = (1-z) n + z h.
  Tensor n = TensorPool::acquire_uninit(rows, hid_);
  Tensor y = TensorPool::acquire_uninit(rows, hid_);
  backend.gru_blend(n.flat().data(), y.flat().data(), an.flat().data(),
                    z.flat().data(), hv.flat().data(), y.size());
  TensorPool::release(std::move(a_zr));
  TensorPool::release(std::move(an));
  TensorPool::release(std::move(rh));

  if (grad_disabled()) {
    TensorPool::release(std::move(z));
    TensorPool::release(std::move(r));
    TensorPool::release(std::move(n));
    return Var(std::move(y));
  }

  // One tape node for the whole step.  Saved activations: z, r, n.
  return Var::make(
      std::move(y),
      {x, h, wxz_, whz_, bz_, wxr_, whr_, br_, wxn_, whn_, bn_},
      [x = Var(x), h = Var(h), wxz = wxz_, whz = whz_, bz = bz_,
       wxr = wxr_, whr = whr_, br = br_, wxn = wxn_, whn = whn_, bn = bn_,
       z = std::move(z), r = std::move(r),
       n = std::move(n)](const Tensor& g) mutable {
        const Tensor& xval = x.value();
        const Tensor& hval = h.value();
        const std::size_t nrows = g.rows(), hid = g.cols();

        // dan = g (1-z) (1-n^2);  daz = g (h-n) z (1-z);
        // rh2  = r h (recomputed — cheaper than storing a 4th tensor).
        // daz lands in the left block of the (R x 2H) d_zr panel so the
        // z/r gate grads flow through concatenated matmuls.
        Tensor dan = TensorPool::acquire_uninit(nrows, hid);
        Tensor d_zr = TensorPool::acquire_uninit(nrows, 2 * hid);
        Tensor rh2 = TensorPool::acquire_uninit(nrows, hid);
        for (std::size_t row = 0; row < nrows; ++row) {
          const double* grow = g.row(row).data();
          const double* zrow = z.row(row).data();
          const double* rrow = r.row(row).data();
          const double* nrow = n.row(row).data();
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
        if (bn.requires_grad()) colsum_acc(bn.grad_ref(), dan);
        if (wxn.requires_grad()) matmul_tn_acc(wxn.grad_ref(), xval, dan);
        if (whn.requires_grad()) matmul_tn_acc(whn.grad_ref(), rh2, dan);

        // drh = dan Whn^T routes the candidate grad into r and h;
        // dar = (drh h) r (1-r) fills the right block of d_zr.
        Tensor drh = TensorPool::acquire(nrows, hid);
        matmul_nt_acc(drh, dan, whn.value());
        for (std::size_t row = 0; row < nrows; ++row) {
          const double* drhrow = drh.row(row).data();
          const double* rrow = r.row(row).data();
          const double* hrow = hval.row(row).data();
          double* dzr = d_zr.row(row).data() + hid;
          for (std::size_t c = 0; c < hid; ++c)
            dzr[c] = drhrow[c] * hrow[c] * rrow[c] * (1.0 - rrow[c]);
        }

        if (bz.requires_grad()) colsum_block_acc(bz.grad_ref(), d_zr, 0);
        if (br.requires_grad()) colsum_block_acc(br.grad_ref(), d_zr, hid);

        // Stacked z/r weight grads: [x|h]^T d_zr is one ((in+hid) x 2H)
        // panel holding all four gate-weight gradients as sub-blocks.
        const std::size_t in_dim = xval.cols();
        {
          Tensor xh2 = TensorPool::acquire_uninit(nrows, in_dim + hid);
          concat2(xh2, xval, hval);
          Tensor dw = TensorPool::acquire(in_dim + hid, 2 * hid);
          matmul_tn_acc(dw, xh2, d_zr);
          if (wxz.requires_grad()) add_block(wxz.grad_ref(), dw, 0, 0);
          if (wxr.requires_grad()) add_block(wxr.grad_ref(), dw, 0, hid);
          if (whz.requires_grad()) add_block(whz.grad_ref(), dw, in_dim, 0);
          if (whr.requires_grad()) add_block(whr.grad_ref(), dw, in_dim, hid);
          TensorPool::release(std::move(xh2));
          TensorPool::release(std::move(dw));
        }

        if (x.requires_grad() || h.requires_grad()) {
          // d[x|h] = d_zr [[Wxz|Wxr];[Whz|Whr]]^T in one call, split back
          // into the input gradients.
          Tensor wzr2 = TensorPool::acquire_uninit(in_dim + hid, 2 * hid);
          build_zr_panel(wzr2, wxz.value(), wxr.value(), whz.value(),
                         whr.value());
          Tensor dxh = TensorPool::acquire(nrows, in_dim + hid);
          matmul_nt_acc(dxh, d_zr, wzr2);
          if (x.requires_grad()) {
            Tensor& xg = x.grad_ref();
            add_block(xg, dxh, 0, 0);
            matmul_nt_acc(xg, dan, wxn.value());
          }
          if (h.requires_grad()) {
            Tensor& hg = h.grad_ref();
            add_block(hg, dxh, 0, in_dim);
            const auto gf = g.flat();
            const auto zf = z.flat(), rf = r.flat();
            const auto drhf = drh.flat();
            auto hgf = hg.flat();
            // dh += g z (direct blend term) + drh r (through the reset).
            for (std::size_t i = 0; i < hgf.size(); ++i)
              hgf[i] += gf[i] * zf[i] + drhf[i] * rf[i];
          }
          TensorPool::release(std::move(wzr2));
          TensorPool::release(std::move(dxh));
        }

        TensorPool::release(std::move(dan));
        TensorPool::release(std::move(d_zr));
        TensorPool::release(std::move(rh2));
        TensorPool::release(std::move(drh));
      });
}

std::vector<std::pair<std::string, Var>> GRUCell::named_params() const {
  return {{name_ + ".wxz", wxz_}, {name_ + ".whz", whz_}, {name_ + ".bz", bz_},
          {name_ + ".wxr", wxr_}, {name_ + ".whr", whr_}, {name_ + ".br", br_},
          {name_ + ".wxn", wxn_}, {name_ + ".whn", whn_}, {name_ + ".bn", bn_}};
}

}  // namespace rnx::nn
