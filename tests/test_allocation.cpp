#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "hw/allocation.hpp"
#include "hw/tenant.hpp"
#include "sim/rng.hpp"
#include "hw_grants.hpp"

namespace perfcloud::hw {
namespace {

constexpr double kBig = 1e18;

TEST(WeightedFairAllocate, EmptyClaims) {
  EXPECT_TRUE(fair_allocate(10.0, {}).empty());
}

TEST(WeightedFairAllocate, UndersubscribedEveryoneSatisfied) {
  const std::vector<Claim> claims = {{2.0, 1.0, kBig}, {3.0, 1.0, kBig}};
  const auto g = fair_allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 3.0);
}

TEST(WeightedFairAllocate, OversubscribedEqualWeightsSplitEvenly) {
  const std::vector<Claim> claims = {{10.0, 1.0, kBig}, {10.0, 1.0, kBig}};
  const auto g = fair_allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 5.0);
  EXPECT_DOUBLE_EQ(g[1], 5.0);
}

TEST(WeightedFairAllocate, WeightsProportionalWhenUnsatisfied) {
  const std::vector<Claim> claims = {{100.0, 3.0, kBig}, {100.0, 1.0, kBig}};
  const auto g = fair_allocate(8.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 6.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
}

TEST(WeightedFairAllocate, SurplusRedistributedToHungry) {
  // First claimant needs little; its leftover share goes to the second.
  const std::vector<Claim> claims = {{1.0, 1.0, kBig}, {100.0, 1.0, kBig}};
  const auto g = fair_allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 9.0);
}

TEST(WeightedFairAllocate, CapsBindBeforeDemand) {
  const std::vector<Claim> claims = {{100.0, 1.0, 2.0}, {100.0, 1.0, kBig}};
  const auto g = fair_allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 8.0);
}

TEST(WeightedFairAllocate, ZeroCapGetsNothing) {
  const std::vector<Claim> claims = {{5.0, 1.0, 0.0}, {5.0, 1.0, kBig}};
  const auto g = fair_allocate(4.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 4.0);
}

TEST(WeightedFairAllocate, ZeroDemandGetsNothing) {
  const std::vector<Claim> claims = {{0.0, 1.0, kBig}, {5.0, 1.0, kBig}};
  const auto g = fair_allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 5.0);
}

TEST(WeightedFairAllocate, ZeroCapacity) {
  const std::vector<Claim> claims = {{5.0, 1.0, kBig}};
  const auto g = fair_allocate(0.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
}

TEST(WeightedFairAllocate, ThreeTierWaterfill) {
  // capacity 12, equal weights: fair share 4; A capped at 1 -> surplus to
  // B and C; B needs only 5, C soaks the rest.
  const std::vector<Claim> claims = {{10.0, 1.0, 1.0}, {5.0, 1.0, kBig}, {100.0, 1.0, kBig}};
  const auto g = fair_allocate(12.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 5.0);
  EXPECT_DOUBLE_EQ(g[2], 6.0);
}

// Property-based sweep over random claim sets.
class AllocationProperties : public ::testing::TestWithParam<int> {};

TEST_P(AllocationProperties, InvariantsHold) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 9));
  std::vector<Claim> claims;
  for (int i = 0; i < n; ++i) {
    Claim c;
    c.demand = rng.uniform(0.0, 20.0);
    c.weight = rng.uniform(0.1, 5.0);
    c.cap = rng.bernoulli(0.3) ? rng.uniform(0.0, 10.0) : kBig;
    claims.push_back(c);
  }
  const double capacity = rng.uniform(0.0, 40.0);
  const auto g = fair_allocate(capacity, claims);

  ASSERT_EQ(g.size(), claims.size());
  double total = 0.0;
  double effective_demand = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double want = std::min(claims[i].demand, claims[i].cap);
    EXPECT_GE(g[i], -1e-9);
    EXPECT_LE(g[i], want + 1e-9);
    total += g[i];
    effective_demand += want;
  }
  // Total never exceeds capacity.
  EXPECT_LE(total, capacity + 1e-6);
  // Work conservation: total == min(capacity, total effective demand).
  EXPECT_NEAR(total, std::min(capacity, effective_demand), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomClaims, AllocationProperties, ::testing::Range(0, 40));

}  // namespace
}  // namespace perfcloud::hw
