#include <gtest/gtest.h>

#include "hw/server.hpp"
#include "hw_grants.hpp"

namespace perfcloud::hw {
namespace {

ServerConfig r630() {
  ServerConfig cfg;
  cfg.name = "r630";
  cfg.memory.cpi_jitter_sigma = 0.0;
  cfg.disk.wait_jitter_sigma = 0.0;
  return cfg;
}

TEST(Server, NameAndConfig) {
  Server s(r630(), sim::Rng(1));
  EXPECT_EQ(s.name(), "r630");
  EXPECT_EQ(s.config().cpu.cores, 48);
}

TEST(Server, GrantCombinesAllSubsystems) {
  Server s(r630(), sim::Rng(1));
  TenantDemand d;
  d.cpu_core_seconds = 2.0;
  d.io_ops = 10.0;
  d.io_bytes = 10.0 * 4096;
  d.llc_footprint = 4.0 * 1024 * 1024;
  d.mem_bw_per_cpu_sec = 0.5e9;
  d.cpi_base = 1.0;
  const auto g = arbitrate(s, 1.0, {&d, 1});
  ASSERT_EQ(g.size(), 1u);
  EXPECT_DOUBLE_EQ(g[0].cpu_core_seconds, 2.0);
  EXPECT_DOUBLE_EQ(g[0].cycles, 2.0 * 2.3e9);
  EXPECT_GT(g[0].instructions, 0.0);
  EXPECT_NEAR(g[0].instructions, g[0].cycles / g[0].cpi, 1.0);
  EXPECT_NEAR(g[0].io_ops, 10.0, 1e-9);
  EXPECT_GT(g[0].io_wait_seconds, 0.0);
}

TEST(Server, InstructionsInverseToCpi) {
  Server s(r630(), sim::Rng(1));
  TenantDemand light;
  light.cpu_core_seconds = 1.0;
  light.llc_footprint = 1.0 * 1024 * 1024;
  light.mem_bw_per_cpu_sec = 0.1e9;
  light.cpi_base = 1.0;

  TenantDemand heavy = light;
  heavy.cpi_base = 2.0;

  const std::vector<TenantDemand> d = {light, heavy};
  const auto g = arbitrate(s, 1.0, d);
  EXPECT_NEAR(g[0].instructions / g[1].instructions, 2.0, 0.01);
}

TEST(Server, EmptyDemandsAreFine) {
  Server s(r630(), sim::Rng(1));
  EXPECT_TRUE(arbitrate(s, 1.0, {}).empty());
}

TEST(Server, UtilizationAccessorsReflectLoad) {
  Server s(r630(), sim::Rng(1));
  TenantDemand d;
  d.cpu_core_seconds = 1.0;
  d.io_ops = 2000.0;  // 4x the disk's 500 IOPS
  d.io_bytes = 2000.0 * 4096;
  d.llc_footprint = 1e12;
  d.mem_bw_per_cpu_sec = 100e9;
  const auto g = arbitrate(s, 1.0, {&d, 1});
  (void)g;
  EXPECT_GT(s.last_disk_utilization(), 2.0);
  EXPECT_GT(s.last_bw_utilization(), 1.0);
}

TEST(Server, DeterministicForSameSeed) {
  Server a(r630(), sim::Rng(9));
  Server b(r630(), sim::Rng(9));
  TenantDemand d;
  d.cpu_core_seconds = 1.0;
  d.io_ops = 100.0;
  d.io_bytes = 100.0 * 65536;
  d.llc_footprint = 64.0 * 1024 * 1024;
  d.mem_bw_per_cpu_sec = 1e9;
  for (int t = 0; t < 20; ++t) {
    const auto ga = arbitrate(a, 0.1, {&d, 1});
    const auto gb = arbitrate(b, 0.1, {&d, 1});
    EXPECT_DOUBLE_EQ(ga[0].io_wait_seconds, gb[0].io_wait_seconds);
    EXPECT_DOUBLE_EQ(ga[0].cpi, gb[0].cpi);
  }
}

}  // namespace
}  // namespace perfcloud::hw
