#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace st {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform(-3.5, 2.5);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.5);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(42);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIndexCoversAllValuesWithoutBias) {
  Rng rng(9);
  constexpr std::uint64_t kN = 7;
  std::array<int, kN> counts{};
  constexpr int kDraws = 70'000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.uniform_index(kN)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<int>(kN), 500);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.02);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(12);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.normal(5.0, 2.0);
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(3.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(15);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(DeriveSeed, DistinctLabelsGiveDistinctStreams) {
  const std::uint64_t root = 99;
  const std::uint64_t a = derive_seed(root, "channel");
  const std::uint64_t b = derive_seed(root, "mobility");
  const std::uint64_t c = derive_seed(root, "measurement");
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

TEST(DeriveSeed, DeterministicInRootAndLabel) {
  EXPECT_EQ(derive_seed(5, "x"), derive_seed(5, "x"));
  EXPECT_NE(derive_seed(5, "x"), derive_seed(6, "x"));
}

TEST(SplitMix64, KnownSequenceIsStable) {
  // Reference values from the published SplitMix64 algorithm, seed 0.
  SplitMix64 mix(0);
  EXPECT_EQ(mix.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(mix.next(), 0x6E789E6AA1B965F4ULL);
}

}  // namespace
}  // namespace st
