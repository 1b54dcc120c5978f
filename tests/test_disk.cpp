#include <gtest/gtest.h>

#include "hw/disk.hpp"
#include "sim/stats.hpp"
#include "hw_grants.hpp"

namespace perfcloud::hw {
namespace {

DiskConfig small_disk() {
  DiskConfig cfg;
  cfg.iops_capacity = 100.0;   // 10 ms per op
  cfg.bw_capacity = 100.0e6;   // 100 MB/s
  return cfg;
}

BlockDevice make_disk(DiskConfig cfg = small_disk(), std::uint64_t seed = 1) {
  return BlockDevice(cfg, sim::Rng(seed));
}

TenantDemand io_demand(double ops, sim::Bytes bytes, double cap_bps = kNoCap) {
  TenantDemand d;
  d.io_ops = ops;
  d.io_bytes = bytes;
  d.io_cap_bytes_per_sec = cap_bps;
  return d;
}

TEST(BlockDevice, NoDemandNoGrant) {
  BlockDevice disk = make_disk();
  const std::vector<TenantDemand> d = {io_demand(0.0, 0.0)};
  const auto g = serve(disk, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0].ops, 0.0);
  EXPECT_DOUBLE_EQ(g[0].bytes, 0.0);
  EXPECT_DOUBLE_EQ(g[0].wait_seconds, 0.0);
}

TEST(BlockDevice, LightLoadFullyServed) {
  BlockDevice disk = make_disk();
  const std::vector<TenantDemand> d = {io_demand(10.0, 1.0e6)};
  const auto g = serve(disk, 1.0, d);
  EXPECT_NEAR(g[0].ops, 10.0, 1e-9);
  EXPECT_NEAR(g[0].bytes, 1.0e6, 1e-9);
  EXPECT_LT(disk.last_utilization(), 0.2);
}

TEST(BlockDevice, OpsBoundSaturation) {
  BlockDevice disk = make_disk();
  // 400 small ops demanded; device does 100 ops/s -> 4x oversubscribed.
  const std::vector<TenantDemand> d = {io_demand(400.0, 400.0 * 4096)};
  const auto g = serve(disk, 1.0, d);
  EXPECT_NEAR(g[0].ops, 100.0, 2.0);
  EXPECT_GT(disk.last_utilization(), 3.5);
}

TEST(BlockDevice, BytesBoundSaturation) {
  BlockDevice disk = make_disk();
  // 300 MB in large requests; bw 100 MB/s dominates.
  const std::vector<TenantDemand> d = {io_demand(300.0, 300.0e6)};
  const auto g = serve(disk, 1.0, d);
  EXPECT_LT(g[0].bytes, 110.0e6);
  EXPECT_GT(g[0].bytes, 20.0e6);
}

TEST(BlockDevice, ThrottleCapsThroughput) {
  BlockDevice disk = make_disk();
  const std::vector<TenantDemand> d = {io_demand(50.0, 50.0e6, /*cap=*/10.0e6)};
  const auto g = serve(disk, 1.0, d);
  EXPECT_LE(g[0].bytes, 10.0e6 + 1e-6);
  // Ops scale down with bytes (request mix preserved).
  EXPECT_NEAR(g[0].ops / 50.0, g[0].bytes / 50.0e6, 1e-9);
}

TEST(BlockDevice, ThrottleIopsCap) {
  BlockDevice disk = make_disk();
  TenantDemand d = io_demand(80.0, 80.0 * 4096);
  d.io_cap_iops = 20.0;
  const auto g = serve(disk, 1.0, {&d, 1});
  EXPECT_LE(g[0].ops, 20.0 + 1e-6);
}

TEST(BlockDevice, EqualTenantsGetEqualService) {
  BlockDevice disk = make_disk();
  const std::vector<TenantDemand> d = {io_demand(400.0, 400.0 * 4096),
                                       io_demand(400.0, 400.0 * 4096)};
  const auto g = serve(disk, 1.0, d);
  EXPECT_NEAR(g[0].ops, g[1].ops, 1e-6);
}

TEST(BlockDevice, WeightedTenantsSplitProportionally) {
  BlockDevice disk = make_disk();
  std::vector<TenantDemand> d = {io_demand(400.0, 400.0 * 4096), io_demand(400.0, 400.0 * 4096)};
  d[0].io_weight = 3.0;
  const auto g = serve(disk, 1.0, d);
  EXPECT_NEAR(g[0].ops / g[1].ops, 3.0, 0.01);
}

TEST(BlockDevice, WaitGrowsWithContention) {
  // Same tenant demand; measure its wait ratio alone vs next to a hog.
  BlockDevice alone = make_disk(small_disk(), 7);
  BlockDevice shared = make_disk(small_disk(), 7);
  const TenantDemand victim = io_demand(20.0, 20.0 * 512 * 1024);
  const TenantDemand hog = io_demand(500.0, 500.0 * 4096);

  double wait_alone = 0.0;
  double ops_alone = 0.0;
  double wait_shared = 0.0;
  double ops_shared = 0.0;
  for (int t = 0; t < 50; ++t) {
    const auto ga = serve(alone, 1.0, {&victim, 1});
    wait_alone += ga[0].wait_seconds;
    ops_alone += ga[0].ops;
    const std::vector<TenantDemand> both = {victim, hog};
    const auto gs = serve(shared, 1.0, both);
    wait_shared += gs[0].wait_seconds;
    ops_shared += gs[0].ops;
  }
  const double ratio_alone = wait_alone / ops_alone;
  const double ratio_shared = wait_shared / ops_shared;
  EXPECT_GT(ratio_shared, 3.0 * ratio_alone);
}

TEST(BlockDevice, WaitPerOpScalesWithUtilization) {
  DiskConfig cfg = small_disk();
  cfg.wait_jitter_sigma = 0.0;
  BlockDevice light = make_disk(cfg);
  BlockDevice heavy = make_disk(cfg);
  // Same request mix at 20 % vs 400 % of the op capacity.
  const std::vector<TenantDemand> d_light = {io_demand(20.0, 20.0 * 4096)};
  const std::vector<TenantDemand> d_heavy = {io_demand(400.0, 400.0 * 4096)};
  const auto gl = serve(light, 1.0, d_light);
  const auto gh = serve(heavy, 1.0, d_heavy);
  const double ratio_light = gl[0].wait_seconds / gl[0].ops;
  const double ratio_heavy = gh[0].wait_seconds / gh[0].ops;
  EXPECT_GT(ratio_heavy, 10.0 * ratio_light);
}

TEST(BlockDevice, BurstyNeighbourSpreadsWaits) {
  // Two identical fair victims next to a deep-queue tenant: their wait
  // ratios diverge; next to an equal-demand fair tenant they stay close.
  DiskConfig cfg = small_disk();
  BlockDevice fair_world = make_disk(cfg, 5);
  BlockDevice bursty_world = make_disk(cfg, 5);
  TenantDemand victim = io_demand(10.0, 10.0 * 512 * 1024);
  TenantDemand fair_hog = io_demand(300.0, 300.0 * 4096);
  TenantDemand bursty_hog = fair_hog;
  bursty_hog.io_weight = 8.0;

  double fair_gap = 0.0;
  double bursty_gap = 0.0;
  for (int t = 0; t < 100; ++t) {
    const std::vector<TenantDemand> fw = {victim, victim, fair_hog};
    const auto gf = serve(fair_world, 0.1, fw);
    fair_gap += std::abs(gf[0].wait_seconds / gf[0].ops - gf[1].wait_seconds / gf[1].ops);
    const std::vector<TenantDemand> bw = {victim, victim, bursty_hog};
    const auto gb = serve(bursty_world, 0.1, bw);
    bursty_gap += std::abs(gb[0].wait_seconds / gb[0].ops - gb[1].wait_seconds / gb[1].ops);
  }
  EXPECT_GT(bursty_gap, 3.0 * fair_gap);
}

TEST(BlockDevice, JitterIsDeterministicPerSeed) {
  BlockDevice a = make_disk(small_disk(), 42);
  BlockDevice b = make_disk(small_disk(), 42);
  const std::vector<TenantDemand> d = {io_demand(50.0, 50.0 * 4096),
                                       io_demand(80.0, 80.0 * 4096)};
  for (int t = 0; t < 10; ++t) {
    const auto ga = serve(a, 0.5, d);
    const auto gb = serve(b, 0.5, d);
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_DOUBLE_EQ(ga[i].wait_seconds, gb[i].wait_seconds);
      EXPECT_DOUBLE_EQ(ga[i].ops, gb[i].ops);
    }
  }
}

TEST(BlockDevice, ZeroTickIsSafe) {
  BlockDevice disk = make_disk();
  const std::vector<TenantDemand> d = {io_demand(10.0, 1e6)};
  const auto g = serve(disk, 0.0, d);
  EXPECT_DOUBLE_EQ(g[0].ops, 0.0);
}

TEST(BlockDevice, ThrottledTenantDoesNotBlockOthers) {
  BlockDevice disk = make_disk();
  const std::vector<TenantDemand> d = {io_demand(500.0, 500.0 * 4096, /*cap=*/4096.0 * 5),
                                       io_demand(50.0, 50.0 * 512 * 1024)};
  const auto g = serve(disk, 1.0, d);
  EXPECT_LE(g[0].ops, 5.5);
  // Tenant 1 gets nearly its full demand now that the hog is throttled.
  EXPECT_GT(g[1].ops, 40.0);
}

}  // namespace
}  // namespace perfcloud::hw
