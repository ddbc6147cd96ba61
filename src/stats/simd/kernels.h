// Templated kernel bodies for the SIMD dispatch layer.
//
// Each kernel is instantiated once per backend (kernels_scalar.cc,
// kernels_avx2.cc); the vector main loop hands its remainder to the
// ScalarBackend instantiation, so a tier's tail elements are bitwise
// identical to the pure-scalar tier by construction.
//
// Aliasing contract (shared by every tier): input and output ranges must
// not overlap unless a kernel is explicitly documented as in-place
// (PhaseRotateT, FftT, and the read-modify-write accumulators, which take
// a single pointer per range). Pointers annotated __restrict are honoured
// as such by the vector loads/stores; the asserts make the contract
// checkable in debug builds.
//
// The single-point CfPoint helpers at the bottom are what the
// Distribution::Cf overrides call: they are the ScalarBackend kernels at
// n == 1, which keeps the CfGrid == Cf bitwise contract
// (tests/stats/cf_grid_test.cc) intact no matter which tier grids run on.

#ifndef USP_STATS_SIMD_KERNELS_H_
#define USP_STATS_SIMD_KERNELS_H_

#include <cassert>
#include <complex>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <vector>

#include "stats/simd/vec_math.h"

namespace usp {
namespace stats {
namespace simd {

namespace detail {
inline constexpr double kPi = 3.14159265358979323846;
}  // namespace detail

// out[i] = exp(c * t^2) * (cos(mean*t) + i sin(mean*t)), c = -sd^2/2.
template <class B>
void GaussianCfGridT(double c, double mean, const double* __restrict t,
                     std::size_t n, std::complex<double>* __restrict out) {
  assert(NoOverlap(t, n * sizeof(*t), out, n * sizeof(*out)));
  const auto vc = B::Set(c);
  const auto vm = B::Set(mean);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto tv = B::Load(t + i);
    const auto re = B::Mul(B::Mul(vc, tv), tv);  // (c*t)*t, as hoisted form
    const auto im = B::Mul(vm, tv);
    const auto e = Exp<B>(re);
    typename B::V s, co;
    SinCos<B>(im, &s, &co);
    B::StoreComplex(out + i, B::Mul(e, co), B::Mul(e, s));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) GaussianCfGridT<ScalarBackend>(c, mean, t + i, n - i, out + i);
  }
}

// out[i] += weight * exp(c * t^2) * (cos(mean*t) + i sin(mean*t));
// one call per mixture component, in component order.
template <class B>
void GmmCfGridAccumT(double c, double mean, double weight,
                     const double* __restrict t, std::size_t n,
                     std::complex<double>* __restrict out) {
  assert(NoOverlap(t, n * sizeof(*t), out, n * sizeof(*out)));
  const auto vc = B::Set(c);
  const auto vm = B::Set(mean);
  const auto vw = B::Set(weight);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto tv = B::Load(t + i);
    const auto re = B::Mul(B::Mul(vc, tv), tv);
    const auto im = B::Mul(vm, tv);
    const auto g = B::Mul(vw, Exp<B>(re));  // weight * exp(re), then * rot
    typename B::V s, co;
    SinCos<B>(im, &s, &co);
    B::AccumComplex(out + i, B::Mul(g, co), B::Mul(g, s));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) {
      GmmCfGridAccumT<ScalarBackend>(c, mean, weight, t + i, n - i, out + i);
    }
  }
}

// Uniform[lo, hi]: out = (e^{it*hi} - e^{it*lo}) / (i * t * width), with
// the t == 0 lanes selected to exactly (1, 0). Division by the purely
// imaginary denominator is expanded to (num_im/den, -num_re/den); zero
// lanes divide by a selected 1.0 so no lane ever divides by zero.
template <class B>
void UniformCfGridT(double lo, double hi, const double* __restrict t,
                    std::size_t n, std::complex<double>* __restrict out) {
  assert(NoOverlap(t, n * sizeof(*t), out, n * sizeof(*out)));
  const auto vlo = B::Set(lo);
  const auto vhi = B::Set(hi);
  const auto vwidth = B::Set(hi - lo);
  const auto one = B::Set(1.0);
  const auto zero = B::Set(0.0);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto tv = B::Load(t + i);
    const auto is_zero = B::Eq(tv, zero);
    typename B::V sh, ch, sl, cl;
    SinCos<B>(B::Mul(tv, vhi), &sh, &ch);
    SinCos<B>(B::Mul(tv, vlo), &sl, &cl);
    const auto num_re = B::Sub(ch, cl);
    const auto num_im = B::Sub(sh, sl);
    const auto den = B::Select(is_zero, one, B::Mul(tv, vwidth));
    const auto out_re = B::Select(is_zero, one, B::Div(num_im, den));
    const auto out_im = B::Select(is_zero, zero, B::Neg(B::Div(num_re, den)));
    B::StoreComplex(out + i, out_re, out_im);
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) UniformCfGridT<ScalarBackend>(lo, hi, t + i, n - i, out + i);
  }
}

// Exponential(rate): rate / (rate - i t) expanded against the conjugate:
// (rate^2 / den, rate*t / den), den = rate^2 + t^2.
template <class B>
void ExponentialCfGridT(double rate, const double* __restrict t, std::size_t n,
                        std::complex<double>* __restrict out) {
  assert(NoOverlap(t, n * sizeof(*t), out, n * sizeof(*out)));
  const auto vrate = B::Set(rate);
  const auto vrate2 = B::Set(rate * rate);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto tv = B::Load(t + i);
    const auto den = B::Add(vrate2, B::Mul(tv, tv));
    B::StoreComplex(out + i, B::Div(vrate2, den),
                    B::Div(B::Mul(vrate, tv), den));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) ExponentialCfGridT<ScalarBackend>(rate, t + i, n - i, out + i);
  }
}

// Shapes above this bound leave the vector form (see GammaCfGridT).
inline constexpr double kGammaCfMaxVectorShape = 0x1p20;

// Gamma(shape, scale): (1 - i x)^{-shape} with x = scale * t, in polar
// form (1 + x^2)^{-shape/2} * (cos(shape * atan x) + i sin(shape * atan x)).
// The modulus is exp(-shape/2 * L) with L = log(1 + x^2), or 2 log|x| once
// |x| > 2^500 (x^2 would overflow; |x| is clamped to DBL_MAX so an
// overflowed scale * t reads as the largest finite x). atan is a shared
// per-lane libm call, as erfc is. t == 0 gives exactly (1, 0), and
// cf(-t) == conj(cf(t)) bitwise. A shape above kGammaCfMaxVectorShape
// would push shape * atan x past the range SinCos reduces accurately, so
// such grids take the complex pow per point on every tier (the branch
// depends on the shape only, so the tiers still agree lane for lane).
template <class B>
void GammaCfGridT(double shape, double scale, const double* __restrict t,
                  std::size_t n, std::complex<double>* __restrict out) {
  assert(NoOverlap(t, n * sizeof(*t), out, n * sizeof(*out)));
  if (!(shape <= kGammaCfMaxVectorShape)) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::pow(std::complex<double>(1.0, -scale * t[i]), -shape);
    }
    return;
  }
  const auto vscale = B::Set(scale);
  const auto vshape = B::Set(shape);
  const auto vneg_half_shape = B::Set(-0.5 * shape);
  const auto one = B::Set(1.0);
  const auto two = B::Set(2.0);
  const auto big = B::Set(0x1p500);
  const auto dbl_max = B::Set(std::numeric_limits<double>::max());
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto x = B::Mul(vscale, B::Load(t + i));
    auto ax = B::Abs(x);
    ax = B::Select(B::Lt(ax, dbl_max), ax, dbl_max);
    const auto is_big = B::Lt(big, ax);
    const auto log_arg = B::Select(is_big, ax, B::Add(one, B::Mul(x, x)));
    auto l = Log<B>(log_arg);
    l = B::Select(is_big, B::Mul(two, l), l);
    const auto modulus = Exp<B>(B::Mul(vneg_half_shape, l));
    typename B::V s, c;
    SinCos<B>(B::Mul(vshape, B::Atan(x)), &s, &c);
    B::StoreComplex(out + i, B::Mul(modulus, c), B::Mul(modulus, s));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) GammaCfGridT<ScalarBackend>(shape, scale, t + i, n - i, out + i);
  }
}

// out[i] = 0.5 * erfc(-z/sqrt2), z = (x[i]-mean)/sd: the StdNormalCdf
// form. erfc is a shared per-lane libm call, so this is lane-exact too.
template <class B>
void GaussianCdfGridT(double mean, double sd, const double* __restrict x,
                      std::size_t n, double* __restrict out) {
  assert(NoOverlap(x, n * sizeof(*x), out, n * sizeof(*out)));
  const auto vm = B::Set(mean);
  const auto vsd = B::Set(sd);
  const auto vsqrt2 = B::Set(detail::kSqrt2);
  const auto vhalf = B::Set(0.5);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto z = B::Div(B::Sub(B::Load(x + i), vm), vsd);
    const auto e = B::Erfc(B::Div(B::Neg(z), vsqrt2));
    B::Store(out + i, B::Mul(vhalf, e));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) GaussianCdfGridT<ScalarBackend>(mean, sd, x + i, n - i, out + i);
  }
}

// out[i] += weight * StdNormalCdf((x[i]-mean)/sd); one call per component.
template <class B>
void GmmCdfGridAccumT(double mean, double sd, double weight,
                      const double* __restrict x, std::size_t n,
                      double* __restrict out) {
  assert(NoOverlap(x, n * sizeof(*x), out, n * sizeof(*out)));
  const auto vm = B::Set(mean);
  const auto vsd = B::Set(sd);
  const auto vw = B::Set(weight);
  const auto vsqrt2 = B::Set(detail::kSqrt2);
  const auto vhalf = B::Set(0.5);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto z = B::Div(B::Sub(B::Load(x + i), vm), vsd);
    const auto cdf = B::Mul(vhalf, B::Erfc(B::Div(B::Neg(z), vsqrt2)));
    B::Store(out + i, B::Add(B::Load(out + i), B::Mul(vw, cdf)));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) {
      GmmCdfGridAccumT<ScalarBackend>(mean, sd, weight, x + i, n - i, out + i);
    }
  }
}

// out[i] *= cf[i] with the ProductCf underflow pin: entries already at
// zero stay zero (their sign bits preserved), products whose norm drops
// below kCfNormPin become exactly +0.
template <class B>
void ProductCfAccumT(const std::complex<double>* __restrict cf, std::size_t n,
                     std::complex<double>* __restrict out) {
  assert(NoOverlap(cf, n * sizeof(*cf), out, n * sizeof(*out)));
  std::size_t i = 0;
  for (; i + B::kCplxLanes <= n; i += B::kCplxLanes) {
    B::ProductPinChunk(cf + i, out + i);
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) ProductCfAccumT<ScalarBackend>(cf + i, n - i, out + i);
  }
}

// In-place iterative radix-2 FFT, bitwise-identical to common::Fft: the
// per-stage twiddle table is filled by the same sequential w *= wlen
// recurrence the scalar form uses (so every tier multiplies by identical
// factors), and the butterflies are lane adds/subs plus CMul. `twiddle`
// is caller-provided scratch (the dispatch wrapper owns a thread_local).
template <class B>
void FftT(std::complex<double>* data, std::size_t n, bool inverse,
          std::vector<std::complex<double>>* twiddle) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  if (twiddle->size() < n / 2) twiddle->resize(n / 2);
  std::complex<double>* tw = twiddle->data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double ang =
        2.0 * detail::kPi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    tw[0] = {1.0, 0.0};
    for (std::size_t k = 1; k < half; ++k) tw[k] = CMul(tw[k - 1], wlen);
    for (std::size_t i = 0; i < n; i += len) {
      std::size_t k = 0;
      if constexpr (B::kCplxLanes > 1) {
        for (; k + B::kCplxLanes <= half; k += B::kCplxLanes) {
          const auto u = B::CLoad(data + i + k);
          const auto v =
              B::CMulV(B::CLoad(data + i + k + half), B::CLoad(tw + k));
          B::CStore(data + i + k, B::CAdd(u, v));
          B::CStore(data + i + k + half, B::CSub(u, v));
        }
      }
      for (; k < half; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = CMul(data[i + k + half], tw[k]);
        data[i + k] = {u.real() + v.real(), u.imag() + v.imag()};
        data[i + k + half] = {u.real() - v.real(), u.imag() - v.imag()};
      }
    }
  }
  if (inverse) {
    const double dn = static_cast<double>(n);
    std::size_t i = 0;
    for (; i + B::kCplxLanes <= n; i += B::kCplxLanes) {
      B::CStore(data + i, B::CDivReal(B::CLoad(data + i), dn));
    }
    for (; i < n; ++i) {
      data[i] = {data[i].real() / dn, data[i].imag() / dn};
    }
  }
}

// In-place pre-FFT phase rotation shared by all three CF inversion entry
// points: data[k] *= exp(i*phase), phase = -k*dt*lo - pi*k/n.
template <class B>
void PhaseRotateT(std::complex<double>* data, std::size_t n, double dt,
                  double lo) {
  const auto vdt = B::Set(dt);
  const auto vlo = B::Set(lo);
  const auto vpi = B::Set(detail::kPi);
  const auto vn = B::Set(static_cast<double>(n));
  std::size_t k = 0;
  for (; k + B::kLanes <= n; k += B::kLanes) {
    const auto kd = B::Iota(static_cast<double>(k));
    const auto t1 = B::Mul(B::Mul(B::Neg(kd), vdt), vlo);
    const auto t2 = B::Div(B::Mul(vpi, kd), vn);
    typename B::V s, c;
    SinCos<B>(B::Sub(t1, t2), &s, &c);
    B::RotateComplex(data + k, c, s);
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    for (; k < n; ++k) {
      const double kd = static_cast<double>(k);
      const double phase =
          -kd * dt * lo - detail::kPi * kd / static_cast<double>(n);
      typename ScalarBackend::V s, c;
      SinCos<ScalarBackend>(phase, &s, &c);
      ScalarBackend::RotateComplex(data + k, c, s);
    }
  }
}

// Post-FFT density extraction: masses[j] = max(0, scale * Re(rot * a[j]))
// * dx with rot = e^{i * t_max * xj}, xj = lo + (j+0.5)*dx. The total-mass
// reduction stays a sequential scalar loop at the call site (a vector
// partial-sum tree would order the adds differently per tier).
template <class B>
void DensityMassesT(const std::complex<double>* __restrict a, std::size_t n,
                    double lo, double dx, double t_max, double scale,
                    double* __restrict masses) {
  assert(NoOverlap(a, n * sizeof(*a), masses, n * sizeof(*masses)));
  const auto vlo = B::Set(lo);
  const auto vdx = B::Set(dx);
  const auto vtmax = B::Set(t_max);
  const auto vscale = B::Set(scale);
  const auto vhalf = B::Set(0.5);
  const auto zero = B::Set(0.0);
  std::size_t j = 0;
  for (; j + B::kLanes <= n; j += B::kLanes) {
    const auto jd = B::Iota(static_cast<double>(j));
    const auto xj = B::Add(vlo, B::Mul(B::Add(jd, vhalf), vdx));
    typename B::V s, c;
    SinCos<B>(B::Mul(vtmax, xj), &s, &c);
    typename B::V are, aim;
    B::LoadComplexSplit(a + j, &are, &aim);
    const auto fj = B::Mul(vscale, B::Sub(B::Mul(c, are), B::Mul(s, aim)));
    B::Store(masses + j, B::Mul(B::Select(B::Lt(zero, fj), fj, zero), vdx));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    // Tail keeps the GLOBAL index j in the xj expression — recursing with
    // a shifted lo would round xj differently than the vector lanes.
    for (; j < n; ++j) {
      const double jd = static_cast<double>(j);
      const double xj = lo + (jd + 0.5) * dx;
      double s, c;
      SinCos<ScalarBackend>(t_max * xj, &s, &c);
      const double fj = scale * (c * a[j].real() - s * a[j].imag());
      masses[j] = (0.0 < fj ? fj : 0.0) * dx;
    }
  }
}

// out[i] = log(x[i]) through the shared Log kernel (x[i] finite, > 0).
template <class B>
void LogT(const double* __restrict x, std::size_t n, double* __restrict out) {
  assert(NoOverlap(x, n * sizeof(*x), out, n * sizeof(*out)));
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    B::Store(out + i, Log<B>(B::Load(x + i)));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) LogT<ScalarBackend>(x + i, n - i, out + i);
  }
}

// Box-Muller over pre-drawn uniforms u1[i] in (0, 1], u2[i] in [0, 1):
// r = sqrt(-2 * log(u1)), theta = 2*pi * u2, z0[i] = r * cos(theta),
// z1[i] = r * sin(theta) — two independent standard normals per pair.
template <class B>
void NormalPairsT(const double* __restrict u1, const double* __restrict u2,
                  std::size_t n, double* __restrict z0,
                  double* __restrict z1) {
  assert(NoOverlap(u1, n * sizeof(*u1), z0, n * sizeof(*z0)));
  assert(NoOverlap(u1, n * sizeof(*u1), z1, n * sizeof(*z1)));
  assert(NoOverlap(u2, n * sizeof(*u2), z0, n * sizeof(*z0)));
  assert(NoOverlap(u2, n * sizeof(*u2), z1, n * sizeof(*z1)));
  assert(NoOverlap(z0, n * sizeof(*z0), z1, n * sizeof(*z1)));
  const auto minus_two = B::Set(-2.0);
  const auto two_pi = B::Set(2.0 * detail::kPi);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto r = B::Sqrt(B::Mul(minus_two, Log<B>(B::Load(u1 + i))));
    typename B::V s, c;
    SinCos<B>(B::Mul(two_pi, B::Load(u2 + i)), &s, &c);
    B::Store(z0 + i, B::Mul(r, c));
    B::Store(z1 + i, B::Mul(r, s));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) {
      NormalPairsT<ScalarBackend>(u1 + i, u2 + i, n - i, z0 + i, z1 + i);
    }
  }
}

// ---- single-point helpers for the Distribution::Cf overrides --------------
// These are the ScalarBackend kernels at n == 1; because every vector tier
// defers its remainder to ScalarBackend, a CfGrid evaluation of any length
// on any tier is bitwise-identical to calling these point forms per entry.

inline std::complex<double> GaussianCfPoint(double c, double mean, double t) {
  std::complex<double> out;
  GaussianCfGridT<ScalarBackend>(c, mean, &t, 1, &out);
  return out;
}

inline void GmmCfPointAccum(double c, double mean, double weight, double t,
                            std::complex<double>* acc) {
  GmmCfGridAccumT<ScalarBackend>(c, mean, weight, &t, 1, acc);
}

inline std::complex<double> UniformCfPoint(double lo, double hi, double t) {
  std::complex<double> out;
  UniformCfGridT<ScalarBackend>(lo, hi, &t, 1, &out);
  return out;
}

inline std::complex<double> ExponentialCfPoint(double rate, double t) {
  std::complex<double> out;
  ExponentialCfGridT<ScalarBackend>(rate, &t, 1, &out);
  return out;
}

inline std::complex<double> GammaCfPoint(double shape, double scale,
                                         double t) {
  std::complex<double> out;
  GammaCfGridT<ScalarBackend>(shape, scale, &t, 1, &out);
  return out;
}

}  // namespace simd
}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_SIMD_KERNELS_H_
