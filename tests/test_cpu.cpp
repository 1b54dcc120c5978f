#include <gtest/gtest.h>

#include "hw/cpu.hpp"
#include "hw_grants.hpp"

namespace perfcloud::hw {
namespace {

CpuScheduler make_sched(int cores = 4) {
  CpuConfig cfg;
  cfg.cores = cores;
  return CpuScheduler(cfg);
}

TenantDemand cpu_demand(double core_seconds, double cap_cores = kNoCap) {
  TenantDemand d;
  d.cpu_core_seconds = core_seconds;
  d.cpu_cap_cores = cap_cores;
  return d;
}

TEST(CpuScheduler, CapacityScalesWithDt) {
  const CpuScheduler s = make_sched(48);
  EXPECT_DOUBLE_EQ(s.capacity(1.0), 48.0);
  EXPECT_DOUBLE_EQ(s.capacity(0.1), 4.8);
}

TEST(CpuScheduler, UndersubscribedFullGrant) {
  CpuScheduler s = make_sched(4);
  const std::vector<TenantDemand> d = {cpu_demand(1.0), cpu_demand(2.0)};
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
}

TEST(CpuScheduler, OversubscribedFairSplit) {
  CpuScheduler s = make_sched(4);
  const std::vector<TenantDemand> d = {cpu_demand(10.0), cpu_demand(10.0)};
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
}

TEST(CpuScheduler, QuotaCapsGrantEvenWhenIdle) {
  CpuScheduler s = make_sched(8);
  const std::vector<TenantDemand> d = {cpu_demand(5.0, /*cap=*/1.0)};
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
}

TEST(CpuScheduler, QuotaScalesWithTickLength) {
  CpuScheduler s = make_sched(8);
  const std::vector<TenantDemand> d = {cpu_demand(5.0, /*cap=*/2.0)};
  const auto g = allocate(s, 0.5, d);
  EXPECT_DOUBLE_EQ(g[0], 1.0);  // 2 cores * 0.5 s
}

TEST(CpuScheduler, WeightsRespectedUnderContention) {
  CpuScheduler s = make_sched(4);
  std::vector<TenantDemand> d = {cpu_demand(100.0), cpu_demand(100.0)};
  d[0].cpu_weight = 3.0;
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 3.0);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
}

TEST(CpuScheduler, NoDemandNoGrant) {
  CpuScheduler s = make_sched(4);
  const std::vector<TenantDemand> d = {cpu_demand(0.0), cpu_demand(1.0)};
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
}

}  // namespace
}  // namespace perfcloud::hw
