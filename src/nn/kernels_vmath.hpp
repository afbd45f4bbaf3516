// The vector sigmoid and tanh of the SIMD kernel tables, written once.
//
// Both SIMD tables (kernels_avx2.cpp at 4 doubles per vector,
// kernels_avx512.cpp at 8) instantiate these templates with their own
// vector-ops type, so the constants and the operation order exist in one
// place: every lane of the 8-wide table goes through exactly the IEEE
// operations of the 4-wide one, and the two tables agree bit for bit
// (tests/nn_kernels_cross_table_test.cpp).
//
// An Ops type provides, over its vector type V of doubles:
//   set1, add, sub, mul, div, fmadd(a, b, c) = a b + c, fnmadd(a, b, c) =
//   c - a b, min / max (NaN in either operand returns the SECOND operand,
//   as minpd / maxpd do), round (to nearest integer, no exception),
//   and_ / andnot(a, b) = ~a & b / or_ on the bit patterns,
//   zero_where_greater(y, t, c): y with the lanes where t > c (ordered)
//   set to +0, and pow2(n): 2^n for an integer-valued n in [-1022, 1022]
//   (any lane value for a NaN n).
//
// Linkage rule: everything here has internal linkage (the unnamed
// namespace), and so must each Ops type.  Each kernel TU is compiled with
// its own ISA flags; an inline entity with external linkage would be
// emitted by both, and the linker could keep the AVX-512 copy for a
// caller on a CPU without AVX-512.
#pragma once

namespace rnx::nn::kernels {
namespace {

constexpr double kMinLog = -708.396418532264078749;  // log(DBL_MIN), normal
constexpr double kSigmoidMaxArg = 708.0;  // s·Q stays finite below this
constexpr double kTanhMaxArg = 22.0;      // tanh rounds to 1 from here on

/// e^x = s (Q + P) / (Q - P), s = 2^n, where P / Q = tanh(r / 2) on the
/// reduced argument r = x - n ln2, |r| <= ln2 / 2.  x must lie in
/// [kMinLog, kSigmoidMaxArg] (or be NaN, which reaches P and Q).
template <class Ops>
struct ExpParts {
  typename Ops::V p, q, s;
};

template <class Ops>
inline ExpParts<Ops> vexp_parts(typename Ops::V x) {
  // n = round(x * log2(e)); r = x - n*ln2 in two pieces for accuracy.
  const auto n = Ops::round(Ops::mul(x, Ops::set1(1.4426950408889634073599)));
  x = Ops::fnmadd(n, Ops::set1(6.93145751953125e-1), x);
  x = Ops::fnmadd(n, Ops::set1(1.42860682030941723212e-6), x);

  const auto xx = Ops::mul(x, x);
  auto px = Ops::set1(1.26177193074810590878e-4);
  px = Ops::fmadd(px, xx, Ops::set1(3.02994407707441961300e-2));
  px = Ops::fmadd(px, xx, Ops::set1(9.99999999999999999910e-1));
  px = Ops::mul(px, x);
  auto qx = Ops::set1(3.00198505138664455042e-6);
  qx = Ops::fmadd(qx, xx, Ops::set1(2.52448340349684104192e-3));
  qx = Ops::fmadd(qx, xx, Ops::set1(2.27265548208155028766e-1));
  qx = Ops::fmadd(qx, xx, Ops::set1(2.0));
  return {px, qx, Ops::pow2(n)};
}

/// (s + 1) Q + (s - 1) P, the shared denominator: s e^r + 1 times Q - P.
/// Rounding the P term and fusing the Q term (tanh's numerator too)
/// measured the tighter of the two orders.
template <class Ops>
inline typename Ops::V exp_denominator(const ExpParts<Ops>& e) {
  const auto one = Ops::set1(1.0);
  return Ops::fmadd(Ops::add(e.s, one), e.q,
                    Ops::mul(Ops::sub(e.s, one), e.p));
}

// sigma(x) = 1 / (1 + e^t), t = -x: (Q - P) / ((s + 1) Q + (s - 1) P).
// t below kMinLog rounds s + 1 to 1 and s - 1 to -1, so the ratio is
// exactly 1; t above kSigmoidMaxArg returns +0.  The constant goes first
// in min/max, which return their second operand on NaN, so NaN
// propagates.
template <class Ops>
inline typename Ops::V vsigmoid_v(typename Ops::V x) {
  const auto t = Ops::sub(Ops::set1(0.0), x);
  const auto tc = Ops::max(Ops::set1(kMinLog),
                           Ops::min(Ops::set1(kSigmoidMaxArg), t));
  const ExpParts<Ops> e = vexp_parts<Ops>(tc);
  const auto y = Ops::div(Ops::sub(e.q, e.p), exp_denominator<Ops>(e));
  return Ops::zero_where_greater(y, t, Ops::set1(kSigmoidMaxArg));
}

// tanh a = (e^2a - 1) / (e^2a + 1) = ((s - 1) Q + (s + 1) P) / ((s + 1) Q
// + (s - 1) P) on a = min(22, |x|), with x's sign OR-ed back in (so
// tanh(-0) = -0).  tanh(22) rounds to 1, and there s - 1 and s + 1 round
// to s, so the ratio is exactly 1.  Near 0, n = 0 and the ratio is P / Q
// on r = 2a: no cancellation.  NaN propagates through min as in sigmoid.
template <class Ops>
inline typename Ops::V vtanh_v(typename Ops::V x) {
  const auto one = Ops::set1(1.0);
  const auto sign_mask = Ops::set1(-0.0);
  const auto sign = Ops::and_(x, sign_mask);
  const auto a =
      Ops::min(Ops::set1(kTanhMaxArg), Ops::andnot(sign_mask, x));
  const ExpParts<Ops> e = vexp_parts<Ops>(Ops::add(a, a));
  const auto num = Ops::fmadd(Ops::sub(e.s, one), e.q,
                              Ops::mul(Ops::add(e.s, one), e.p));
  return Ops::or_(Ops::div(num, exp_denominator<Ops>(e)), sign);
}

}  // namespace
}  // namespace rnx::nn::kernels
