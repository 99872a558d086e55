#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "net/rng.h"

namespace curtain::net {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeriveIndependentOfParentConsumption) {
  Rng parent(7);
  const Rng child_before = parent.derive("tag");
  parent.next_u64();
  parent.next_u64();
  Rng child_after = parent.derive("tag");
  Rng child_copy = child_before;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child_copy.next_u64(), child_after.next_u64());
  }
}

TEST(Rng, DeriveDistinctTags) {
  Rng parent(7);
  Rng a = parent.derive("alpha");
  Rng b = parent.derive("beta");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DeriveTagAndIdComposes) {
  Rng parent(7);
  Rng a = parent.derive("d", 1);
  Rng b = parent.derive("d", 2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformU64InclusiveBounds) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.uniform_u64(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(Rng, UniformU64DegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_u64(9, 9), 9u);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, LognormalMedian) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.lognormal_median(50.0, 0.3));
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], 50.0, 1.5);
  for (const double s : samples) EXPECT_GT(s, 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexIgnoresNegativeWeights) {
  Rng rng(29);
  const std::vector<double> weights{-5.0, 1.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_index(weights), 1u);
}

TEST(Rng, PickReturnsMember) {
  Rng rng(37);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int p = rng.pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
}

TEST(Mix, MixKeyDistinguishesInputs) {
  EXPECT_NE(mix_key(1, 2), mix_key(2, 1));
  EXPECT_NE(mix_key(0, 0), mix_key(0, 1));
}

TEST(Mix, HashTagStable) {
  EXPECT_EQ(hash_tag("gateways"), hash_tag("gateways"));
  EXPECT_NE(hash_tag("gateways"), hash_tag("gateway"));
}

}  // namespace
}  // namespace curtain::net
