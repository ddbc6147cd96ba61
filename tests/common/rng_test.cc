#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

namespace usp {
namespace common {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, FillUniformMatchesUniformCallsAndState) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1001}}) {
    Rng bulk(321), single(321);
    bulk.Gaussian();  // the cached Box-Muller deviate must survive too
    single.Gaussian();
    std::vector<double> out(n);
    bulk.FillUniform(out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      const double u = single.Uniform();
      ASSERT_EQ(std::memcmp(&out[i], &u, sizeof(u)), 0)
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(bulk.Gaussian(), single.Gaussian());
    EXPECT_EQ(bulk.Next(), single.Next());
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(10);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.UniformInt(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(12);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, GammaMomentsMatch) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  const double k = 3.0, theta = 2.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gamma(k, theta);
    EXPECT_GE(x, 0.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, k * theta, 0.1);
  EXPECT_NEAR(var, k * theta * theta, 0.5);
}

TEST(RngTest, GammaSmallShape) {
  Rng rng(14);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gamma(0.5, 1.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalProportionalToWeights) {
  Rng rng(16);
  const std::vector<double> w = {1.0, 2.0, 7.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const size_t idx = rng.Categorical(w);
    ASSERT_LT(idx, 3u);
    counts[idx]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(RngTest, CategoricalAllZeroWeightsReturnsSize) {
  Rng rng(17);
  EXPECT_EQ(rng.Categorical({0.0, 0.0}), 2u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  // The child must not replay the parent's stream.
  Rng b(42);
  b.Next();  // advance like a did for the fork
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace common
}  // namespace usp
