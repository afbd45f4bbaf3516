// P1 — scalar-vs-SIMD microbenchmarks of the dense hot path at
// RouteNet-realistic shapes: the matmul family, the elementwise
// transcendentals and full GRU steps (552 paths x 16 state dims is the
// GEANT2 working set; 256^3 is the throughput-bound shape; 229x12 and
// 74x12 are the serve model's path and link steps, 229x12 also run in
// place through GRUCell::step_indexed), one projection of a GEANT2
// link+node source through the path GRU's input weights (98x12), and one
// whole path-RNN iteration over a real GEANT2 extended plan (H=12)
// through nn::GruSweep, untaped as serving runs it and taped, forward
// and backward, as training runs it.  The activations also report ns per
// element, max ulp from the scalar reference and their share of the
// 229x12 step.  The GFLOP/s columns of the gru_step_* and gru_sweep_*
// rows count the nominal, unhoisted step, 12*R*H^2 flops at in == H, and
// the fwdbwd rows the nominal, unhoisted backward (twice the forward),
// although a sweep projects each source row once and steps only the h
// terms, and its backward runs the x side once per source row; so they
// stay comparable across versions of the kernels.
//
// Every kernel runs in-process on every backend this CPU supports
// (nn::kernels::supported_backends(): scalar, avx2+fma, avx512), each
// pinned via nn::kernels::ScopedBackendOverride, so the emitted times
// compare identical code paths on identical buffers.  BENCH_nn_ops.json
// records the detected ISA, the dispatch reason, per-backend times
// (<case>_<backend>_us) and per-shape speedups of the best backend over
// scalar (the DESIGN.md §K target: >= 4x matmul/GRU on AVX2 hosts).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/plan.hpp"
#include "data/generator.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace rnx;
using nn::Tensor;
using nn::kernels::Backend;

Tensor rand_tensor(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::RngStream rng(seed);
  return nn::uniform_init(r, c, -1.0, 1.0, rng);
}

/// Doubles between a and b (+0 and -0 count as equal).
double ulp_distance(double a, double b) {
  const auto key = [](double v) {
    std::int64_t i = 0;
    std::memcpy(&i, &v, sizeof i);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ka = key(a), kb = key(b);
  return static_cast<double>(ka > kb ? ka - kb : kb - ka);
}

/// Time fn() until it has consumed ~min_seconds of wall clock (after one
/// untimed warmup call), returning seconds per iteration.
template <typename Fn>
double time_per_iter(Fn&& fn, double min_seconds) {
  fn();  // warmup: page in buffers, resolve dispatch
  std::size_t iters = 1;
  for (;;) {
    util::Stopwatch sw;
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double secs = sw.seconds();
    if (secs >= min_seconds) return secs / static_cast<double>(iters);
    // Grow geometrically towards the time budget.
    iters = secs > 0.0
                ? static_cast<std::size_t>(
                      static_cast<double>(iters) * (min_seconds / secs) * 1.3) +
                      1
                : iters * 8;
  }
}

/// A backend's name as a JSON key part: "avx2+fma" -> "avx2_fma".
std::string key_of(const Backend& b) {
  std::string key = b.name;
  std::replace(key.begin(), key.end(), '+', '_');
  return key;
}

struct Case {
  std::string name;
  double flops_per_iter;  ///< for GFLOP/s reporting (0 = skip)
  /// Seconds per iteration on each supported backend, in
  /// supported_backends() order: scalar first, the best backend last.
  std::vector<double> secs;

  [[nodiscard]] double scalar_s() const { return secs.front(); }
  [[nodiscard]] double simd_s() const { return secs.back(); }
  [[nodiscard]] double speedup() const {
    return simd_s() > 0.0 ? scalar_s() / simd_s() : 1.0;
  }
};

}  // namespace

int main() {
  benchcfg::print_banner("nn ops: scalar vs SIMD kernel backends");
  const double budget = benchcfg::quick_mode() ? 0.05 : 0.25;

  const Backend& scalar = nn::kernels::scalar_backend();
  const auto backends = nn::kernels::supported_backends();
  // supported_backends() lists the tables in dispatch order, best last.
  const Backend& best = *backends.back();
  std::cout << "active backend: " << nn::kernels::active().name << " ("
            << nn::kernels::dispatch_reason() << ")\n"
            << "comparing";
  for (const Backend* b : backends) std::cout << " " << b->name;
  std::cout << (backends.size() == 1 ? "  [no SIMD backend on this host]" : "")
            << "\n\n";

  benchcfg::BenchResult result("nn_ops");
  result.set_config("matmul family + transcendentals + GRU step, scalar vs " +
                    std::string(best.name));
  result.note("isa", best.name);
  result.note("dispatch_reason", nn::kernels::dispatch_reason());

  std::vector<Case> cases;
  const auto run_all = [&](const std::string& name, double flops, auto&& fn) {
    Case c{name, flops, {}};
    for (const Backend* b : backends) {
      const nn::kernels::ScopedBackendOverride pin(*b);
      c.secs.push_back(time_per_iter(fn, budget));
    }
    cases.push_back(c);
  };

  // -- matmul family ---------------------------------------------------
  {
    const Tensor a = rand_tensor(552, 16, 1), b = rand_tensor(16, 16, 2);
    Tensor c(552, 16);
    run_all("matmul_552x16x16", 2.0 * 552 * 16 * 16,
             [&] { nn::matmul_acc(c, a, b); });
  }
  {
    const Tensor a = rand_tensor(256, 256, 3), b = rand_tensor(256, 256, 4);
    Tensor c(256, 256);
    run_all("matmul_256x256x256", 2.0 * 256 * 256 * 256,
             [&] { nn::matmul_acc(c, a, b); });
  }
  {
    const Tensor a = rand_tensor(552, 16, 5), b = rand_tensor(552, 16, 6);
    Tensor c(16, 16);
    run_all("matmul_tn_552x16x16", 2.0 * 552 * 16 * 16,
             [&] { nn::matmul_tn_acc(c, a, b); });
  }
  {
    const Tensor a = rand_tensor(552, 16, 7), b = rand_tensor(16, 16, 8);
    Tensor c(552, 16);
    run_all("matmul_nt_552x16x16", 2.0 * 552 * 16 * 16,
             [&] { nn::matmul_nt_acc(c, a, b); });
  }

  // -- elementwise transcendentals -------------------------------------
  {
    const Tensor a = rand_tensor(552, 32, 9);
    Tensor y(552, 32);
    run_all("sigmoid_552x32", 0.0, [&] {
      nn::kernels::active().vsigmoid(y.flat().data(), a.flat().data(),
                                     a.size());
    });
    run_all("tanh_552x32", 0.0, [&] {
      nn::kernels::active().vtanh(y.flat().data(), a.flat().data(), a.size());
    });
  }

  // -- GRU steps (the message-passing hot loop) ------------------------
  // Nominal matmul flops of one step over `rows` rows at in == hid:
  // 12*R*H^2, whatever share of it the kernels hoist out of the step.
  const auto gru_flops = [](std::size_t rows, std::size_t hid) {
    return 12.0 * static_cast<double>(rows * hid * hid);
  };
  // 552x16 is the GEANT2 working set at the default width; the serve
  // shapes are the perfbench GEANT2 model (H=12): a path step over the
  // 229 paths active at a typical position, a link update over 74
  // links, and that path step run in place through step_indexed.
  for (const auto& [rows, hid] : {std::pair<std::size_t, std::size_t>{552, 16},
                                  {229, 12},
                                  {74, 12}}) {
    util::RngStream rng(10 + rows);
    const nn::GRUCell cell(hid, hid, rng);
    const nn::Var x(rand_tensor(rows, hid, 11), false);
    const nn::Var h(rand_tensor(rows, hid, 12), false);
    const nn::NoGradGuard guard;
    run_all("gru_step_fwd_" + std::to_string(rows) + "x" +
                 std::to_string(hid),
             gru_flops(rows, hid), [&] { (void)cell.step(x, h); });
  }
  {
    constexpr std::size_t kPaths = 552, kLinks = 74, kActive = 229, kHid = 12;
    util::RngStream rng(16);
    const nn::GRUCell cell(kHid, kHid, rng);
    const nn::Var links(rand_tensor(kLinks, kHid, 17), false);
    nn::Var hidden(rand_tensor(kPaths, kHid, 18), false);
    std::vector<nn::Index> path_rows(kActive), elem_ids(kActive);
    for (std::size_t i = 0; i < kActive; ++i) {
      path_rows[i] = static_cast<nn::Index>(i * kPaths / kActive);
      elem_ids[i] = static_cast<nn::Index>((i * 7) % kLinks);
    }
    const nn::NoGradGuard guard;
    run_all("gru_step_indexed_229x12", gru_flops(kActive, kHid), [&] {
      cell.step_indexed(links, elem_ids, hidden, path_rows);
    });
  }
  // One projection of a GEANT2 source: its 74 link and 24 node rows
  // through [Wxz|Wxr|Wxn] from the biases, the product a sweep forms
  // once per source row.  The scalar backend has no projection kernel and
  // runs the same product as one matmul.
  {
    constexpr std::size_t kRows = 98, kHid = 12;
    const Tensor x = rand_tensor(kRows, kHid, 25);
    const Tensor wx = rand_tensor(kHid, 3 * kHid, 26);
    const Tensor bias = rand_tensor(1, 3 * kHid, 27);
    // The same weights split per gate, as GruWeights holds them.
    std::vector<Tensor> gate_w(3, Tensor(kHid, kHid));
    std::vector<Tensor> gate_b(3, Tensor(1, kHid));
    for (std::size_t g = 0; g < 3; ++g)
      for (std::size_t c = 0; c < kHid; ++c) {
        gate_b[g](0, c) = bias(0, g * kHid + c);
        for (std::size_t p = 0; p < kHid; ++p)
          gate_w[g](p, c) = wx(p, g * kHid + c);
      }
    const auto d = [](const Tensor& t) { return t.flat().data(); };
    const nn::kernels::GruWeights w{d(gate_w[0]), nullptr, d(gate_b[0]),
                                    d(gate_w[1]), nullptr, d(gate_b[1]),
                                    d(gate_w[2]), nullptr, d(gate_b[2])};
    Tensor u(kRows, 3 * kHid);
    run_all("gru_project_98x12", 2.0 * kRows * kHid * 3 * kHid, [&] {
      const Backend& b = nn::kernels::active();
      if (b.gru_project != nullptr &&
          b.gru_project(u.flat().data(), x.flat().data(), nullptr, kRows,
                        kHid, kHid, w))
        return;
      for (std::size_t r = 0; r < kRows; ++r)
        std::copy(bias.flat().begin(), bias.flat().end(), u.row(r).begin());
      nn::matmul_acc(u, x, wx);
    });
  }
  // One message-passing iteration of the path RNN on a GEANT2 extended
  // plan, as Model::forward runs it: untaped (serving), and taped then
  // back-propagated from its link messages and final states (training;
  // every input requires grad).
  {
    constexpr std::size_t kHid = 12;
    data::GeneratorConfig gen;
    gen.target_packets = 2'000;
    const core::MpPlan plan = core::build_plan(
        data::generate_dataset(topo::geant2(), 1, gen, 20)[0], true);
    util::RngStream rng(21);
    const nn::GRUCell cell(kHid, kHid, rng);
    const nn::Var initial(rand_tensor(plan.num_paths, kHid, 22), true);
    const nn::Var links(rand_tensor(plan.num_links, kHid, 23), true);
    const nn::Var nodes(rand_tensor(plan.num_nodes, kHid, 24), true);
    const auto sweep = [&](bool taped) {
      nn::GruSweep sw(cell, initial, {links, nodes}, plan.total_entries());
      nn::Var link_msg;
      for (std::size_t p = 0; p < plan.num_positions(); ++p) {
        const core::PlanPosition pos = plan.position(p);
        sw.step(pos.is_node ? nodes : links, pos.elem_ids, pos.path_rows);
        if (pos.is_node) continue;
        const nn::Var msg = sw.messages(plan.num_links);
        link_msg = link_msg.defined() ? nn::add(link_msg, msg) : msg;
      }
      const nn::Var states = sw.states();
      if (taped)
        nn::add(nn::mean_all(link_msg), nn::mean_all(states)).backward();
    };
    const double flops = gru_flops(plan.total_entries(), kHid);
    {
      const nn::NoGradGuard guard;
      run_all("gru_sweep_geant2x12", flops, [&] { sweep(false); });
    }
    run_all("gru_sweep_fwdbwd_geant2x12", 3.0 * flops, [&] { sweep(true); });
  }
  {
    util::RngStream rng(13);
    const nn::GRUCell cell(16, 16, rng);
    nn::Var x(rand_tensor(552, 16, 14), true);
    nn::Var h(rand_tensor(552, 16, 15), true);
    run_all("gru_step_fwdbwd_552x16", 0.0, [&] {
      x.zero_grad();
      h.zero_grad();
      nn::Var loss = nn::mean_all(cell.step(x, h));
      loss.backward();
    });
  }

  // -- report ----------------------------------------------------------
  // One time column per backend; speedup and GFLOP/s are scalar vs best.
  std::cout << std::left << std::setw(26) << "kernel" << std::right;
  for (const Backend* b : backends)
    std::cout << std::setw(14) << (std::string(b->name) + " us");
  std::cout << std::setw(10) << "speedup" << std::setw(16) << "scalar GFLOP/s"
            << std::setw(16) << "simd GFLOP/s" << "\n";
  for (const Case& c : cases) {
    std::cout << std::left << std::setw(26) << c.name << std::right
              << std::fixed << std::setprecision(2);
    for (const double s : c.secs) std::cout << std::setw(14) << s * 1e6;
    std::cout << std::setw(10) << c.speedup();
    if (c.flops_per_iter > 0.0)
      std::cout << std::setw(16) << c.flops_per_iter / c.scalar_s() / 1e9
                << std::setw(16) << c.flops_per_iter / c.simd_s() / 1e9;
    std::cout << "\n";
    for (std::size_t i = 0; i < backends.size(); ++i)
      result.add(c.name + "_" + key_of(*backends[i]) + "_us", c.secs[i] * 1e6);
    result.add(c.name + "_simd_us", c.simd_s() * 1e6);
    result.add(c.name + "_speedup", c.speedup());
    if (c.flops_per_iter > 0.0) {
      result.add(c.name + "_scalar_gflops",
                 c.flops_per_iter / c.scalar_s() / 1e9);
      result.add(c.name + "_simd_gflops", c.flops_per_iter / c.simd_s() / 1e9);
    }
  }

  std::cout << "(gru_step_* and gru_sweep_* GFLOP/s count the nominal, "
               "unhoisted step: 12*R*H^2 flops at in == H; the fwdbwd rows "
               "also the unhoisted backward, twice that)\n";

  // Headline numbers CI tracks against the >= 4x DESIGN.md §K target.
  for (const Case& c : cases) {
    if (c.name == "matmul_256x256x256") result.add("matmul_speedup", c.speedup());
    if (c.name == "gru_step_fwd_552x16") result.add("gru_speedup", c.speedup());
  }
  // What training pays for a path-RNN iteration over serving, on the
  // best backend: the taped sweep plus its backward over the untaped
  // sweep of the same plan.
  const auto simd_s = [&](const std::string& name) {
    for (const Case& c : cases)
      if (c.name == name) return c.simd_s();
    return 0.0;
  };
  result.add("gru_sweep_fwdbwd_over_untaped_geant2x12",
             simd_s("gru_sweep_fwdbwd_geant2x12") /
                 simd_s("gru_sweep_geant2x12"));
  const double untaped = simd_s("gru_step_indexed_229x12");

  // The activations' speed and accuracy together on the best backend:
  // ns per element, max ulp from the scalar reference over a fixed
  // seeded sweep, and their share of a 229x12 step, which runs sigmoid
  // on 2 * 229 * 12 gate elements and tanh on 229 * 12.
  const double act_elems = 552.0 * 32.0;
  const double sigmoid_ns = simd_s("sigmoid_552x32") / act_elems * 1e9;
  const double tanh_ns = simd_s("tanh_552x32") / act_elems * 1e9;
  result.add("sigmoid_ns_per_elem", sigmoid_ns);
  result.add("tanh_ns_per_elem", tanh_ns);
  std::vector<double> sweep(1 << 16);
  util::RngStream sweep_rng(19);
  for (double& v : sweep) v = sweep_rng.uniform(-30.0, 30.0);
  const auto max_ulp = [&](auto member) {
    const std::size_t n = sweep.size();
    std::vector<double> ys(n), yb(n);
    (scalar.*member)(ys.data(), sweep.data(), n);
    (best.*member)(yb.data(), sweep.data(), n);
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      worst = std::max(worst, ulp_distance(ys[i], yb[i]));
    return worst;
  };
  result.add("sigmoid_max_ulp", max_ulp(&Backend::vsigmoid));
  result.add("tanh_max_ulp", max_ulp(&Backend::vtanh));
  const double step_elems = 229.0 * 12.0;
  result.add("gru_act_share_229x12",
             (2.0 * step_elems * sigmoid_ns + step_elems * tanh_ns) * 1e-9 /
                 untaped);
  std::cout << "\nactivations on " << best.name << ": sigmoid "
            << std::setprecision(2) << sigmoid_ns << " ns/elem, tanh "
            << tanh_ns << " ns/elem\n";

  result.write();
  return 0;
}
