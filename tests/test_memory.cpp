#include <gtest/gtest.h>

#include "hw/memory.hpp"
#include "sim/stats.hpp"
#include "hw_grants.hpp"

namespace perfcloud::hw {
namespace {

MemoryConfig tight_llc() {
  MemoryConfig cfg;
  cfg.llc_size = 32.0 * 1024 * 1024;
  cfg.bw_capacity = 50.0e9;
  cfg.cpi_jitter_sigma = 0.0;  // deterministic for CPI assertions
  return cfg;
}

MemorySystem make_mem(MemoryConfig cfg = tight_llc(), std::uint64_t seed = 1) {
  return MemorySystem(cfg, sim::Rng(seed));
}

TenantDemand mem_demand(sim::Bytes footprint, double bw_per_cpu, double cpi_base = 1.0,
                        double sens = 1.0) {
  TenantDemand d;
  d.llc_footprint = footprint;
  d.mem_bw_per_cpu_sec = bw_per_cpu;
  d.cpi_base = cpi_base;
  d.mem_sensitivity = sens;
  return d;
}

TEST(MemorySystem, FittingWorkingSetHasBaseCpi) {
  MemorySystem mem = make_mem();
  const std::vector<TenantDemand> d = {mem_demand(8.0 * 1024 * 1024, 0.5e9, 1.2)};
  const std::vector<double> cpu = {1.0};
  const auto g = compute(mem, 1.0, d, cpu);
  EXPECT_DOUBLE_EQ(g[0].miss_fraction, 0.0);
  EXPECT_NEAR(g[0].cpi, 1.2, 1e-9);
}

TEST(MemorySystem, OversizedWorkingSetMisses) {
  MemorySystem mem = make_mem();
  const std::vector<TenantDemand> d = {mem_demand(64.0 * 1024 * 1024, 0.5e9)};
  const std::vector<double> cpu = {1.0};
  const auto g = compute(mem, 1.0, d, cpu);
  // LLC-competing set = 64 MiB - 2.5 MiB private; 32 MiB of it fits.
  const double llc_set = (64.0 - 2.5) * 1024 * 1024;
  EXPECT_NEAR(g[0].miss_fraction, 1.0 - 32.0 * 1024 * 1024 / llc_set, 1e-9);
  EXPECT_GT(g[0].cpi, 1.0);
}

TEST(MemorySystem, PrivateCacheResidentSetNeverMisses) {
  MemorySystem mem = make_mem();
  // A 2 MiB working set lives in L1/L2: no LLC competition even next to a
  // monster streamer.
  const std::vector<TenantDemand> d = {mem_demand(2.0 * 1024 * 1024, 0.05e9),
                                       mem_demand(1e12, 8.0e9)};
  const std::vector<double> cpu = {1.0, 8.0};
  const auto g = compute(mem, 1.0, d, cpu);
  EXPECT_DOUBLE_EQ(g[0].miss_fraction, 0.0);
}

TEST(MemorySystem, SmallConsumerBandwidthNeverSqueezed) {
  MemorySystem mem = make_mem();
  // Fair bandwidth partitioning: the tiny consumer gets its full demand
  // even when streamers oversubscribe the controller.
  const std::vector<TenantDemand> d = {mem_demand(2.0 * 1024 * 1024, 0.05e9),
                                       mem_demand(1e12, 40.0e9)};
  const std::vector<double> cpu = {1.0, 8.0};
  const auto g = compute(mem, 1.0, d, cpu);
  const double small_demand = 1.0 * 0.05e9 * 0.1;  // traffic floor applies
  EXPECT_NEAR(g[0].bw_bytes, small_demand, 1.0);
}

TEST(MemorySystem, BigNeighbourSqueezesShare) {
  MemorySystem mem = make_mem();
  // Tenant 0 fits alone; a huge tenant walks in and takes most of the LLC.
  const std::vector<TenantDemand> d = {mem_demand(16.0 * 1024 * 1024, 0.5e9),
                                       mem_demand(16.0 * 1024 * 1024 * 1024, 8.0e9)};
  const std::vector<double> cpu = {1.0, 8.0};
  const auto g = compute(mem, 1.0, d, cpu);
  EXPECT_GT(g[0].miss_fraction, 0.9);
  EXPECT_GT(g[0].cpi, 1.4);
}

TEST(MemorySystem, IdleTenantHoldsNoCache) {
  MemorySystem mem = make_mem();
  const std::vector<TenantDemand> d = {mem_demand(16.0 * 1024 * 1024, 0.5e9),
                                       mem_demand(1e12, 8.0e9)};
  const std::vector<double> cpu = {1.0, 0.0};  // the monster is idle
  const auto g = compute(mem, 1.0, d, cpu);
  EXPECT_DOUBLE_EQ(g[0].miss_fraction, 0.0);
  EXPECT_DOUBLE_EQ(g[1].llc_misses, 0.0);
}

TEST(MemorySystem, BandwidthSaturationInflatesCpi) {
  MemoryConfig cfg = tight_llc();
  MemorySystem calm = make_mem(cfg);
  MemorySystem busy = make_mem(cfg);
  const TenantDemand victim = mem_demand(4.0 * 1024 * 1024, 1.0e9, 1.0, 1.5);
  const TenantDemand hog = mem_demand(1e12, 10.0e9);

  const std::vector<double> cpu1 = {1.0};
  const auto g1 = compute(calm, 1.0, {&victim, 1}, cpu1);

  const std::vector<TenantDemand> both = {victim, hog};
  const std::vector<double> cpu2 = {1.0, 8.0};
  const auto g2 = compute(busy, 1.0, both, cpu2);

  EXPECT_GT(g2[0].cpi, g1[0].cpi * 1.2);
  EXPECT_GT(busy.last_bw_utilization(), 1.0);
}

TEST(MemorySystem, TrafficScaledDownAtSaturation) {
  MemorySystem mem = make_mem();
  const std::vector<TenantDemand> d = {mem_demand(1e12, 10.0e9), mem_demand(1e12, 10.0e9)};
  const std::vector<double> cpu = {8.0, 8.0};
  const auto g = compute(mem, 1.0, d, cpu);
  const double total_bw = g[0].bw_bytes + g[1].bw_bytes;
  EXPECT_LE(total_bw, 50.0e9 + 1e6);
}

TEST(MemorySystem, MissesTrackTraffic) {
  MemorySystem mem = make_mem();
  const std::vector<TenantDemand> d = {mem_demand(1e9, 2.0e9)};
  const std::vector<double> cpu = {2.0};
  const auto g = compute(mem, 1.0, d, cpu);
  EXPECT_NEAR(g[0].llc_misses, g[0].bw_bytes / 64.0, 1e-6);
  EXPECT_GT(g[0].llc_misses, 0.0);
}

TEST(MemorySystem, SensitivityScalesPenalty) {
  MemorySystem mem = make_mem();
  const std::vector<TenantDemand> d = {mem_demand(1e9, 1.0e9, 1.0, 0.5),
                                       mem_demand(1e9, 1.0e9, 1.0, 2.0)};
  const std::vector<double> cpu = {1.0, 1.0};
  const auto g = compute(mem, 1.0, d, cpu);
  // Same miss fraction, different CPI inflation.
  EXPECT_NEAR(g[0].miss_fraction, g[1].miss_fraction, 1e-9);
  EXPECT_GT(g[1].cpi, g[0].cpi * 1.5);
}

TEST(MemorySystem, CpiJitterSpreadsUnderForeignPressureOnly) {
  MemoryConfig cfg = tight_llc();
  cfg.cpi_jitter_sigma = 0.35;
  const TenantDemand solo = mem_demand(4.0 * 1024 * 1024, 0.2e9);
  const TenantDemand hog = mem_demand(1e12, 10.0e9);

  MemorySystem alone = MemorySystem(cfg, sim::Rng(3));
  MemorySystem crowded = MemorySystem(cfg, sim::Rng(3));
  sim::RunningStats cpi_alone;
  sim::RunningStats cpi_crowded;
  for (int t = 0; t < 300; ++t) {
    const std::vector<double> cpu1 = {1.0};
    cpi_alone.add(compute(alone, 0.1, {&solo, 1}, cpu1)[0].cpi);
    const std::vector<TenantDemand> both = {solo, hog};
    const std::vector<double> cpu2 = {1.0, 8.0};
    cpi_crowded.add(compute(crowded, 0.1, both, cpu2)[0].cpi);
  }
  EXPECT_LT(cpi_alone.stddev(), 0.02);
  EXPECT_GT(cpi_crowded.stddev(), 5.0 * cpi_alone.stddev() + 0.05);
}

TEST(MemorySystem, EmptyTenantsSafe) {
  MemorySystem mem = make_mem();
  const auto g = compute(mem, 1.0, {}, {});
  EXPECT_TRUE(g.empty());
}

}  // namespace
}  // namespace perfcloud::hw
