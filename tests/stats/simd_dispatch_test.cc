// The SIMD dispatch contract: every kernel tier is lane-exact, so forcing
// any available tier produces bitwise-identical CF grids, products, FFTs,
// densities, logs, gamma CFs and Box-Muller normal pairs (CDF grids are
// allowed 1e-12 but are bitwise in practice).
// This is what lets the paned/sharded operators keep their exact-replay
// guarantees on any host ISA. Also covers the cross-group CfGridCache:
// hit/miss accounting, LRU bounding, uncacheable fallbacks, and the
// bitwise-neutrality claim (a hit returns exactly what the miss computed).

#include "stats/simd/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "stats/characteristic_function.h"
#include "stats/exponential.h"
#include "stats/gamma_dist.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/histogram.h"
#include "stats/simd/kernels.h"
#include "stats/uniform.h"

namespace usp {
namespace stats {
namespace {

using simd::Active;
using simd::ScopedForceTier;
using simd::Tier;
using simd::TierAvailable;

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (TierAvailable(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  return tiers;
}

std::vector<double> ProbeGrid(size_t n) {
  // Irrational-ish spacing over a wide range so exp/sincos reductions and
  // the underflow pin all engage; includes 0 and negatives.
  std::vector<double> t;
  t.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    t.push_back(-40.0 + 80.0 * static_cast<double>(i) /
                            static_cast<double>(n - 1));
  }
  t[n / 2] = 0.0;
  return t;
}

std::vector<std::unique_ptr<Distribution>> AllDistributions() {
  std::vector<std::unique_ptr<Distribution>> dists;
  dists.push_back(std::make_unique<Gaussian>(1.5, 0.7));
  dists.push_back(std::make_unique<GaussianMixture>(
      GaussianMixture::Make({{0.4, -1.0, 0.5}, {0.6, 2.0, 1.2}})
          .MoveValueUnsafe()));
  dists.push_back(std::make_unique<Uniform>(-2.0, 3.0));
  dists.push_back(std::make_unique<Exponential>(0.8));
  dists.push_back(std::make_unique<GammaDist>(2.5, 1.3));
  return dists;
}

void ExpectComplexEq(const std::vector<std::complex<double>>& a,
                     const std::vector<std::complex<double>>& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << what << " [" << i << "].re";
    ASSERT_EQ(a[i].imag(), b[i].imag()) << what << " [" << i << "].im";
  }
}

TEST(SimdDispatchTest, CfGridBitwiseAcrossTiers) {
  // Odd length so the AVX2 tier exercises its scalar tail.
  const std::vector<double> t = ProbeGrid(259);
  for (const auto& d : AllDistributions()) {
    std::vector<std::vector<std::complex<double>>> per_tier;
    for (const Tier tier : AvailableTiers()) {
      ScopedForceTier force(tier);
      std::vector<std::complex<double>> grid(t.size());
      d->CfGrid(t.data(), t.size(), grid.data());
      // Single-point Cf must agree with the grid kernel on every tier.
      for (size_t i = 0; i < t.size(); i += 37) {
        const std::complex<double> one = d->Cf(t[i]);
        ASSERT_EQ(grid[i].real(), one.real()) << d->ToString();
        ASSERT_EQ(grid[i].imag(), one.imag()) << d->ToString();
      }
      per_tier.push_back(std::move(grid));
    }
    for (size_t k = 1; k < per_tier.size(); ++k) {
      ExpectComplexEq(per_tier[0], per_tier[k], d->ToString().c_str());
    }
  }
}

TEST(SimdDispatchTest, CdfGridWithinToleranceAcrossTiers) {
  std::vector<double> x;
  for (double v = -8.0; v <= 8.0; v += 0.093) x.push_back(v);
  for (const auto& d : AllDistributions()) {
    std::vector<std::vector<double>> per_tier;
    for (const Tier tier : AvailableTiers()) {
      ScopedForceTier force(tier);
      std::vector<double> grid(x.size());
      d->CdfGrid(x.data(), x.size(), grid.data());
      per_tier.push_back(std::move(grid));
    }
    for (size_t k = 1; k < per_tier.size(); ++k) {
      for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(per_tier[0][i], per_tier[k][i], 1e-12)
            << d->ToString() << " at x=" << x[i];
      }
    }
  }
}

TEST(SimdDispatchTest, ProductCfGridBitwiseAcrossTiers) {
  const auto owned = AllDistributions();
  // Repeat the set so the underflow pin engages at large |t|.
  std::vector<const Distribution*> dists;
  for (int rep = 0; rep < 40; ++rep) {
    for (const auto& d : owned) dists.push_back(d.get());
  }
  const std::vector<double> t = ProbeGrid(515);
  std::vector<std::vector<std::complex<double>>> per_tier;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    std::vector<std::complex<double>> out(t.size()), scratch;
    ProductCfGrid(dists, t.data(), t.size(), out.data(), &scratch);
    per_tier.push_back(std::move(out));
  }
  for (size_t k = 1; k < per_tier.size(); ++k) {
    ExpectComplexEq(per_tier[0], per_tier[k], "ProductCfGrid");
  }
}

TEST(SimdDispatchTest, FftBitwiseAcrossTiersAndAgainstReference) {
  common::Rng rng(2024);
  for (const size_t n : {size_t{8}, size_t{256}, size_t{1024}}) {
    std::vector<std::complex<double>> input(n);
    for (auto& c : input) c = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    for (const bool inverse : {false, true}) {
      std::vector<std::complex<double>> reference = input;
      common::Fft(reference, inverse);
      for (const Tier tier : AvailableTiers()) {
        ScopedForceTier force(tier);
        std::vector<std::complex<double>> data = input;
        Active().fft(data.data(), n, inverse);
        ExpectComplexEq(reference, data, "fft");
      }
    }
  }
}

TEST(SimdDispatchTest, PhaseRotateAndDensityMassesBitwiseAcrossTiers) {
  common::Rng rng(7);
  const size_t n = 513;  // odd: forces the AVX2 scalar tails
  std::vector<std::complex<double>> input(n);
  for (auto& c : input) c = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
  std::vector<std::vector<std::complex<double>>> rotated;
  std::vector<std::vector<double>> masses;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    std::vector<std::complex<double>> data = input;
    Active().phase_rotate(data.data(), n, /*dt=*/0.37, /*lo=*/-11.0);
    std::vector<double> m(n);
    Active().density_masses(input.data(), n, /*lo=*/-11.0, /*dx=*/0.043,
                            /*t_max=*/52.0, /*scale=*/0.159, m.data());
    rotated.push_back(std::move(data));
    masses.push_back(std::move(m));
  }
  for (size_t k = 1; k < rotated.size(); ++k) {
    ExpectComplexEq(rotated[0], rotated[k], "phase_rotate");
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(masses[0][i], masses[k][i]) << "density_masses[" << i << "]";
    }
  }
}

TEST(SimdDispatchTest, InversionEndToEndBitwiseAcrossTiers) {
  const auto owned = AllDistributions();
  std::vector<const Distribution*> dists;
  for (const auto& d : owned) dists.push_back(d.get());
  CfInversionOptions opts;
  opts.grid_points = 512;
  double mean = 0.0, var = 0.0;
  for (const Distribution* d : dists) {
    mean += d->Mean();
    var += d->Variance();
  }
  opts.mean = mean;
  opts.stddev = std::sqrt(var);
  std::vector<Histogram> per_tier;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    CfInversionWorkspace ws;
    auto h = InvertSumCfToDensity(dists, opts, &ws);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    per_tier.push_back(h.MoveValueUnsafe());
  }
  for (size_t k = 1; k < per_tier.size(); ++k) {
    ASSERT_EQ(per_tier[0].num_bins(), per_tier[k].num_bins());
    for (size_t b = 0; b < per_tier[0].num_bins(); ++b) {
      ASSERT_EQ(per_tier[0].BinMass(b), per_tier[k].BinMass(b)) << "bin " << b;
    }
  }
}

// ---- Log and normal_pairs ------------------------------------------------

// Distance in units in the last place between two finite doubles of the
// same sign.
int64_t UlpDistance(double a, double b) {
  int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  if (ia < 0) ia = INT64_MIN - ia;
  if (ib < 0) ib = INT64_MIN - ib;
  return ia > ib ? ia - ib : ib - ia;
}

void ExpectBitwiseEq(const std::vector<double>& a, const std::vector<double>& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << " [" << i << "]: " << a[i] << " vs " << b[i];
  }
}

// Box-Muller inputs the way the particle filter draws them: u1 = 1 - U in
// (0, 1], u2 = U in [0, 1), plus both ends of u1's range.
void UniformPairs(size_t n, uint64_t seed, std::vector<double>* u1,
                  std::vector<double>* u2) {
  common::Rng rng(seed);
  u1->resize(n);
  u2->resize(n);
  rng.FillUniform(u1->data(), n);
  for (double& u : *u1) u = 1.0 - u;
  rng.FillUniform(u2->data(), n);
  (*u1)[0] = 1.0;
  if (n > 1) (*u1)[1] = 0x1p-53;
}

TEST(SimdDispatchTest, LogBitwiseAcrossTiers) {
  std::vector<double> x;
  for (double v = 0x1p-53; v <= 1.0; v *= 1.0137) x.push_back(v);
  x.push_back(1.0);
  x.push_back(0x1p-53);
  x.push_back(0x1p-1074);  // smallest subnormal
  x.push_back(3.7e-310);   // subnormal
  x.push_back(1.4142135623730951);
  x.push_back(7.5e200);
  if (x.size() % 4 == 0) x.push_back(0.75);  // keep an AVX2 scalar tail
  std::vector<std::vector<double>> per_tier;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    std::vector<double> out(x.size());
    Active().log(x.data(), x.size(), out.data());
    per_tier.push_back(std::move(out));
  }
  for (size_t k = 1; k < per_tier.size(); ++k) {
    ExpectBitwiseEq(per_tier[0], per_tier[k], "log");
  }
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 1.0) {
      EXPECT_EQ(per_tier[0][i], 0.0);
    }
  }
}

TEST(SimdDispatchTest, LogWithinTwoUlpOfLibm) {
  common::Rng rng(99);
  std::vector<double> x(200003);
  rng.FillUniform(x.data(), x.size());
  for (double& v : x) v = 1.0 - v;  // (0, 1]
  // Powers of two and their neighbours, down to the subnormal range.
  for (int e = 0; e <= 1074; ++e) {
    const double p = std::ldexp(1.0, -e);
    x.push_back(p);
    if (e < 1074) x.push_back(std::nextafter(p, 0.0));
    x.push_back(std::nextafter(p, 1.0));
  }
  std::vector<double> out(x.size());
  Active().log(x.data(), x.size(), out.data());
  int64_t worst = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 1.0) {
      ASSERT_EQ(out[i], 0.0);
      continue;
    }
    const int64_t ulps = UlpDistance(out[i], std::log(x[i]));
    ASSERT_LE(ulps, 2) << "log(" << x[i] << ") = " << out[i] << " vs libm "
                       << std::log(x[i]);
    worst = std::max(worst, ulps);
  }
  RecordProperty("worst_ulp", static_cast<int>(worst));
}

TEST(SimdDispatchTest, NormalPairsBitwiseAcrossTiers) {
  for (const size_t n : {size_t{1}, size_t{3}, size_t{6}, size_t{8},
                         size_t{61}, size_t{1027}}) {
    std::vector<double> u1, u2;
    UniformPairs(n, 1000 + n, &u1, &u2);
    std::vector<std::vector<double>> z0s, z1s;
    for (const Tier tier : AvailableTiers()) {
      ScopedForceTier force(tier);
      std::vector<double> z0(n), z1(n);
      Active().normal_pairs(u1.data(), u2.data(), n, z0.data(), z1.data());
      z0s.push_back(std::move(z0));
      z1s.push_back(std::move(z1));
    }
    for (size_t k = 1; k < z0s.size(); ++k) {
      ExpectBitwiseEq(z0s[0], z0s[k], "normal_pairs z0");
      ExpectBitwiseEq(z1s[0], z1s[k], "normal_pairs z1");
    }
    // u1 = 1 gives a zero radius; u1 = 2^-53 the largest one, 8.57.
    EXPECT_EQ(z0s[0][0], 0.0);
    EXPECT_EQ(z1s[0][0], 0.0);
    if (n > 1) {
      EXPECT_NEAR(std::hypot(z0s[0][1], z1s[0][1]),
                  std::sqrt(-2.0 * std::log(0x1p-53)), 1e-12);
    }
  }
}

TEST(SimdDispatchTest, NormalPairsMomentsAreStandardNormal) {
  const size_t n = 1'000'000;
  std::vector<double> u1, u2;
  UniformPairs(n, 77, &u1, &u2);
  std::vector<double> z0(n), z1(n);
  Active().normal_pairs(u1.data(), u2.data(), n, z0.data(), z1.data());
  double s0 = 0.0, s1 = 0.0, ss0 = 0.0, ss1 = 0.0, s01 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s0 += z0[i];
    s1 += z1[i];
    ss0 += z0[i] * z0[i];
    ss1 += z1[i] * z1[i];
    s01 += z0[i] * z1[i];
  }
  const double dn = static_cast<double>(n);
  const double m0 = s0 / dn, m1 = s1 / dn;
  const double v0 = ss0 / dn - m0 * m0, v1 = ss1 / dn - m1 * m1;
  const double corr = (s01 / dn - m0 * m1) / std::sqrt(v0 * v1);
  // Standard errors at n = 1e6: mean 1e-3, variance 1.4e-3, corr 1e-3;
  // the bounds are five of them.
  EXPECT_NEAR(m0, 0.0, 5e-3);
  EXPECT_NEAR(m1, 0.0, 5e-3);
  EXPECT_NEAR(v0, 1.0, 7e-3);
  EXPECT_NEAR(v1, 1.0, 7e-3);
  EXPECT_NEAR(corr, 0.0, 5e-3);
}

// ---- gamma CF kernel ------------------------------------------------------

constexpr double kGammaShapes[] = {0.5, 1.0, 2.5, 40.0};

// Frequencies spanning the CF's decay for scales around 1, both signs,
// plus 0 and points whose scale * t overflows x^2 (and x itself).
std::vector<double> GammaProbeGrid(size_t n) {
  std::vector<double> t = ProbeGrid(n);
  for (const double big : {1e20, 1e160, 1.7e308}) {
    t.push_back(big);
    t.push_back(-big);
  }
  return t;
}

TEST(SimdDispatchTest, GammaCfBitwiseAcrossTiersAndPointForm) {
  for (const size_t n : {size_t{1}, size_t{3}, size_t{5}, size_t{258}}) {
    const std::vector<double> t = GammaProbeGrid(n + 1);
    for (const double shape : kGammaShapes) {
      for (const double scale : {0.37, 1.0, 3e5}) {
        std::vector<std::vector<std::complex<double>>> per_tier;
        for (const Tier tier : AvailableTiers()) {
          ScopedForceTier force(tier);
          std::vector<std::complex<double>> out(t.size());
          Active().gamma_cf_grid(shape, scale, t.data(), t.size(),
                                 out.data());
          per_tier.push_back(std::move(out));
        }
        for (size_t k = 1; k < per_tier.size(); ++k) {
          ExpectComplexEq(per_tier[0], per_tier[k], "gamma_cf_grid");
        }
        const GammaDist g(shape, scale);
        for (size_t i = 0; i < t.size(); ++i) {
          const std::complex<double> one = g.Cf(t[i]);
          ASSERT_EQ(per_tier[0][i].real(), one.real()) << "t=" << t[i];
          ASSERT_EQ(per_tier[0][i].imag(), one.imag()) << "t=" << t[i];
        }
      }
    }
  }
}

TEST(SimdDispatchTest, GammaCfAtZeroIsExactlyOne) {
  for (const double shape : kGammaShapes) {
    for (const double t0 : {0.0, -0.0}) {
      const std::complex<double> v = simd::GammaCfPoint(shape, 1.7, t0);
      EXPECT_EQ(v.real(), 1.0) << "shape " << shape;
      EXPECT_EQ(v.imag(), 0.0) << "shape " << shape;
    }
  }
}

TEST(SimdDispatchTest, GammaCfIsConjugateSymmetric) {
  const std::vector<double> t = GammaProbeGrid(257);
  std::vector<double> neg(t.size());
  for (size_t i = 0; i < t.size(); ++i) neg[i] = -t[i];
  for (const double shape : kGammaShapes) {
    std::vector<std::complex<double>> pos_out(t.size()), neg_out(t.size());
    Active().gamma_cf_grid(shape, 0.8, t.data(), t.size(), pos_out.data());
    Active().gamma_cf_grid(shape, 0.8, neg.data(), t.size(), neg_out.data());
    for (size_t i = 0; i < t.size(); ++i) {
      ASSERT_EQ(neg_out[i].real(), pos_out[i].real()) << "t=" << t[i];
      ASSERT_EQ(neg_out[i].imag(), -pos_out[i].imag()) << "t=" << t[i];
    }
  }
}

TEST(SimdDispatchTest, GammaCfHugeFrequenciesStayFiniteAndTiny) {
  // scale * t overflows x^2 from |x| ~ 1.3e154 and x itself past DBL_MAX.
  const std::vector<double> t = {1e100,  1e155,   -1e200,
                                 1e300, 1.7e308, -1.7e308};
  for (const double shape : kGammaShapes) {
    for (const double scale : {1.0, 1e10}) {
      std::vector<std::complex<double>> out(t.size());
      Active().gamma_cf_grid(shape, scale, t.data(), t.size(), out.data());
      for (size_t i = 0; i < t.size(); ++i) {
        ASSERT_TRUE(std::isfinite(out[i].real())) << "t=" << t[i];
        ASSERT_TRUE(std::isfinite(out[i].imag())) << "t=" << t[i];
        // |cf| = |x|^-shape <= 1e-100^0.5.
        EXPECT_LE(std::abs(out[i]), 1e-49) << "t=" << t[i];
      }
    }
  }
}

TEST(SimdDispatchTest, GammaCfWithinAbsoluteErrorOfComplexPow) {
  common::Rng rng(2024);
  std::vector<double> t(20003);
  rng.FillUniform(t.data(), t.size());
  for (double& v : t) v = 200.0 * v - 100.0;
  const std::vector<double> probe = ProbeGrid(1001);
  t.insert(t.end(), probe.begin(), probe.end());
  double worst = 0.0;
  for (const double shape : kGammaShapes) {
    for (const double scale : {0.05, 0.9, 13.0}) {
      std::vector<std::complex<double>> out(t.size());
      Active().gamma_cf_grid(shape, scale, t.data(), t.size(), out.data());
      for (size_t i = 0; i < t.size(); ++i) {
        const std::complex<double> ref =
            std::pow(std::complex<double>(1.0, -scale * t[i]), -shape);
        const double err = std::abs(out[i] - ref);
        ASSERT_LE(err, 1e-14) << "shape " << shape << " scale " << scale
                              << " t=" << t[i];
        worst = std::max(worst, err);
      }
    }
  }
  std::ostringstream worst_text;
  worst_text << worst;
  RecordProperty("worst_abs_error", worst_text.str());
}

// ---- CfGridCache ---------------------------------------------------------

TEST(CfGridCacheTest, RepeatedSignaturesHitAndStayBitwise) {
  const Gaussian a(1.0, 2.0), b(1.0, 2.0), c(-3.0, 0.5);
  const std::vector<const Distribution*> dists = {&a, &b, &c};
  const std::vector<double> t = ProbeGrid(129);

  std::vector<std::complex<double>> plain(t.size()), scratch;
  ProductCfGrid(dists, t.data(), t.size(), plain.data(), &scratch);

  CfGridCache cache;
  cache.enabled = true;
  std::vector<std::complex<double>> cached(t.size());
  ProductCfGrid(dists, t.data(), t.size(), cached.data(), &scratch, &cache);
  // First window: a and b share one signature -> one miss serves both.
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.hits, 1u);
  ExpectComplexEq(plain, cached, "cache first pass");

  ProductCfGrid(dists, t.data(), t.size(), cached.data(), &scratch, &cache);
  // Second window over the same parameters: all hits, no new misses.
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.hits, 4u);
  ExpectComplexEq(plain, cached, "cache second pass");
}

TEST(CfGridCacheTest, DisabledCacheCountsNothing) {
  const Gaussian g(0.0, 1.0);
  const std::vector<const Distribution*> dists = {&g, &g};
  const std::vector<double> t = ProbeGrid(65);
  CfGridCache cache;  // enabled defaults to false
  std::vector<std::complex<double>> out(t.size()), scratch;
  ProductCfGrid(dists, t.data(), t.size(), out.data(), &scratch, &cache);
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_TRUE(cache.entries.empty());
}

TEST(CfGridCacheTest, UncacheableDistributionFallsThrough) {
  // Histogram has no parameter signature (AppendCacheKey -> false): it is
  // evaluated directly every time and never stored or counted.
  const Histogram h =
      Histogram::FromMasses(0.0, 1.0, {1.0, 2.0, 1.0}).MoveValueUnsafe();
  const Gaussian g(0.0, 1.0);
  const std::vector<const Distribution*> dists = {&h, &g};
  const std::vector<double> t = ProbeGrid(65);

  std::vector<std::complex<double>> plain(t.size()), scratch;
  ProductCfGrid(dists, t.data(), t.size(), plain.data(), &scratch);

  CfGridCache cache;
  cache.enabled = true;
  std::vector<std::complex<double>> cached(t.size());
  for (int pass = 0; pass < 2; ++pass) {
    ProductCfGrid(dists, t.data(), t.size(), cached.data(), &scratch, &cache);
  }
  EXPECT_EQ(cache.misses, 1u);  // the gaussian only
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.entries.size(), 1u);
  ExpectComplexEq(plain, cached, "uncacheable mix");
}

TEST(CfGridCacheTest, LruEvictionBoundsEntries) {
  std::vector<std::unique_ptr<Gaussian>> owned;
  for (size_t i = 0; i < CfGridCache::kMaxEntries + 16; ++i) {
    owned.push_back(
        std::make_unique<Gaussian>(static_cast<double>(i), 1.0 + 0.01 * i));
  }
  const std::vector<double> t = ProbeGrid(65);
  CfGridCache cache;
  cache.enabled = true;
  std::vector<std::complex<double>> out(t.size()), scratch;
  for (const auto& g : owned) {
    const std::vector<const Distribution*> one = {g.get()};
    ProductCfGrid(one, t.data(), t.size(), out.data(), &scratch, &cache);
  }
  EXPECT_EQ(cache.entries.size(), CfGridCache::kMaxEntries);
  EXPECT_EQ(cache.misses, owned.size());
  EXPECT_EQ(cache.hits, 0u);
  // The most recent signature survived the eviction churn.
  const std::vector<const Distribution*> last = {owned.back().get()};
  ProductCfGrid(last, t.data(), t.size(), out.data(), &scratch, &cache);
  EXPECT_EQ(cache.hits, 1u);
}

TEST(CfGridCacheTest, OversizedGridsAreNotStored) {
  const Gaussian g(0.0, 1.0);
  const std::vector<const Distribution*> dists = {&g};
  const std::vector<double> t = ProbeGrid(CfGridCache::kMaxGridPoints + 1);
  CfGridCache cache;
  cache.enabled = true;
  std::vector<std::complex<double>> out(t.size()), scratch;
  for (int pass = 0; pass < 2; ++pass) {
    ProductCfGrid(dists, t.data(), t.size(), out.data(), &scratch, &cache);
  }
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_TRUE(cache.entries.empty());
}

}  // namespace
}  // namespace stats
}  // namespace usp
