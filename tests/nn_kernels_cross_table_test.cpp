// The AVX-512 kernel table against the AVX2 one, bit for bit (DESIGN.md
// §K).  The AVX-512 table replaces gru_step, vsigmoid and vtanh and runs
// every cell through the AVX2 kernel's operation sequence, so every
// output must equal the AVX2 table's exactly:
//
//   * gru_step at every supported width and 0..40 rows (whole 16-row
//     groups, ragged groups, odd row pairs), with the index arrays null
//     and set, with y aliasing h, untaped and taped (the saved z, r and n
//     too);
//   * vsigmoid and vtanh at n = 0..40 over signed zeros, subnormals,
//     values around both clamps (log DBL_MIN, 708, 22), +-inf and NaN,
//     each value in every lane position.  A NaN output only has to be
//     NaN: its payload may differ.
//
// Skipped on CPUs without AVX-512.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/kernels.hpp"
#include "util/rng.hpp"

namespace {

using rnx::nn::kernels::Backend;
using rnx::nn::kernels::GruActs;
using rnx::nn::kernels::GruWeights;
using rnx::util::RngStream;

struct Tables {
  const Backend* avx2;
  const Backend* avx512;
};

Tables tables() {
  return {rnx::nn::kernels::avx2_backend(), rnx::nn::kernels::avx512_backend()};
}

std::vector<double> random_values(std::size_t n, RngStream& rng,
                                  double lo = -2.0, double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Index of the first element whose bits differ, or -1.
long first_bit_difference(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
      return static_cast<long>(i);
  return -1;
}

/// The nine weights of one GRU cell of `in` inputs and `hid` states.
struct Cell {
  std::vector<double> wxz, whz, bz, wxr, whr, br, wxn, whn, bn;

  Cell(std::size_t in, std::size_t hid, RngStream& rng)
      : wxz(random_values(in * hid, rng, -0.6, 0.6)),
        whz(random_values(hid * hid, rng, -0.6, 0.6)),
        bz(random_values(hid, rng)),
        wxr(random_values(in * hid, rng, -0.6, 0.6)),
        whr(random_values(hid * hid, rng, -0.6, 0.6)),
        br(random_values(hid, rng)),
        wxn(random_values(in * hid, rng, -0.6, 0.6)),
        whn(random_values(hid * hid, rng, -0.6, 0.6)),
        bn(random_values(hid, rng)) {}

  [[nodiscard]] GruWeights weights() const {
    return {wxz.data(), whz.data(), bz.data(), wxr.data(), whr.data(),
            br.data(),  wxn.data(), whn.data(), bn.data()};
  }
};

constexpr std::size_t kMaxRows = 40;

TEST(Avx512Parity, GruStepBitwiseEqualsAvx2) {
  const Tables t = tables();
  if (t.avx512 == nullptr) GTEST_SKIP() << "no AVX-512 on this host";
  ASSERT_NE(t.avx2, nullptr);
  constexpr std::size_t kSources = 7;  // u rows the index arrays pick from
  constexpr std::size_t kStates = kMaxRows + 9;
  // The three index layouts: none; y rows separate from the h rows; y
  // aliasing h, each row updating its own h row.
  enum class Layout { kContiguous, kIndexed, kInPlace };
  for (const std::size_t hid : {4, 8, 12, 16})
    for (std::size_t rows = 0; rows <= kMaxRows; ++rows)
      for (const Layout layout :
           {Layout::kContiguous, Layout::kIndexed, Layout::kInPlace})
        for (const bool taped : {false, true}) {
          SCOPED_TRACE("hid=" + std::to_string(hid) + " rows=" +
                       std::to_string(rows) + " layout=" +
                       std::to_string(static_cast<int>(layout)) +
                       " taped=" + std::to_string(taped));
          RngStream rng(9000 + 101 * hid + 7 * rows);
          const Cell cell(hid, hid, rng);
          const bool indexed = layout != Layout::kContiguous;
          const std::vector<double> u =
              random_values((indexed ? kSources : rows) * 3 * hid, rng);
          const std::vector<double> h0 =
              random_values((indexed ? kStates : rows) * hid, rng);
          // Distinct h rows (a rotation of the states), repeating u rows
          // and distinct y rows.
          std::vector<std::uint32_t> u_rows(rows), h_rows(rows), y_rows(rows);
          for (std::size_t i = 0; i < rows; ++i) {
            u_rows[i] = static_cast<std::uint32_t>((i * 5 + 3) % kSources);
            h_rows[i] = static_cast<std::uint32_t>((i * 11 + 4) % kStates);
            y_rows[i] = layout == Layout::kInPlace
                            ? h_rows[i]
                            : static_cast<std::uint32_t>(kStates - 1 - i);
          }
          const auto run = [&](const Backend& b, std::vector<double>& y,
                               std::vector<double>& h,
                               std::vector<double>& acts) {
            h = h0;
            y = layout == Layout::kInPlace
                    ? std::vector<double>{}
                    : std::vector<double>((indexed ? kStates : rows) * hid,
                                          -7.0);
            double* yp = layout == Layout::kInPlace ? h.data() : y.data();
            acts.assign(3 * rows * hid, -9.0);
            const GruActs save{acts.data(), acts.data() + rows * hid,
                               acts.data() + 2 * rows * hid};
            return b.gru_step(yp, indexed ? y_rows.data() : nullptr, u.data(),
                              indexed ? u_rows.data() : nullptr, h.data(),
                              indexed ? h_rows.data() : nullptr, rows, hid,
                              cell.weights(), taped ? &save : nullptr);
          };
          std::vector<double> y2, h2, a2, y5, h5, a5;
          ASSERT_TRUE(run(*t.avx2, y2, h2, a2));
          ASSERT_TRUE(run(*t.avx512, y5, h5, a5));
          EXPECT_EQ(first_bit_difference(y2, y5), -1) << "y";
          EXPECT_EQ(first_bit_difference(h2, h5), -1) << "h (in place: y)";
          EXPECT_EQ(first_bit_difference(a2, a5), -1) << "saved z, r, n";
        }
  // Widths without a kernel are declined by both, before any access.
  RngStream rng(9001);
  const Cell cell(10, 10, rng);
  EXPECT_FALSE(t.avx512->gru_step(nullptr, nullptr, nullptr, nullptr, nullptr,
                                  nullptr, 3, 10, cell.weights(), nullptr));
}

/// Values at every special point of the two activations: signed zeros,
/// subnormals, the sigmoid clamps around log(DBL_MIN) and 708, tanh's 22,
/// the infinities and NaN, each with neighbours.
std::vector<double> special_values() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double min_log = -708.396418532264078749;
  std::vector<double> v = {0.0, -0.0, inf, -inf, nan, -nan,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min() / 3.0,
                           -std::numeric_limits<double>::min() / 3.0,
                           std::numeric_limits<double>::min(),
                           1e-300, -1e-300, 1e-9, -1e-9, 0.5, -0.5,
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max()};
  for (const double c : {min_log, 708.0, 22.0, 709.0, 745.0, 750.0}) {
    for (const double s : {c, -c}) {
      v.push_back(s);
      v.push_back(std::nextafter(s, inf));
      v.push_back(std::nextafter(s, -inf));
    }
  }
  RngStream rng(9200);
  for (int i = 0; i < 24; ++i) v.push_back(rng.uniform(-40.0, 40.0));
  return v;
}

TEST(Avx512Parity, ActivationsBitwiseEqualAvx2) {
  const Tables t = tables();
  if (t.avx512 == nullptr) GTEST_SKIP() << "no AVX-512 on this host";
  ASSERT_NE(t.avx2, nullptr);
  const std::vector<double> values = special_values();
  for (const auto& [name, member] :
       {std::pair{"sigmoid", &Backend::vsigmoid},
        std::pair{"tanh", &Backend::vtanh}})
    for (std::size_t n = 0; n <= kMaxRows; ++n)
      // Every start offset mod 8 puts each value in every lane.
      for (std::size_t start = 0; start + n <= values.size(); start += 1) {
        const double* a = values.data() + start;
        std::vector<double> y2(n + 1, -3.0), y5(n + 1, -3.0);
        (t.avx2->*member)(y2.data(), a, n);
        (t.avx512->*member)(y5.data(), a, n);
        for (std::size_t i = 0; i <= n; ++i) {
          if (std::isnan(y2[i]) || std::isnan(y5[i])) {
            EXPECT_TRUE(std::isnan(y2[i]) && std::isnan(y5[i]))
                << name << " x=" << a[i];
            continue;
          }
          EXPECT_EQ(std::memcmp(&y2[i], &y5[i], sizeof(double)), 0)
              << name << " n=" << n << " i=" << i << " x=" << a[i] << " "
              << y2[i] << " vs " << y5[i];
        }
        // In place, as the step runs it.
        std::vector<double> in_place(a, a + n);
        (t.avx512->*member)(in_place.data(), in_place.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          if (std::isnan(y2[i])) continue;
          EXPECT_EQ(std::memcmp(&y2[i], &in_place[i], sizeof(double)), 0)
              << name << " in place x=" << a[i];
        }
      }
}

}  // namespace
