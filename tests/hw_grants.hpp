// Test-side adapters for the hw models' span-out signatures: each runs the
// model once and returns its grants as a fresh vector, so assertions can
// index the result directly.
#pragma once

#include <span>
#include <vector>

#include "hw/allocation.hpp"
#include "hw/cpu.hpp"
#include "hw/disk.hpp"
#include "hw/memory.hpp"
#include "hw/server.hpp"

namespace perfcloud::hw {

inline std::vector<double> fair_allocate(double capacity, std::span<const Claim> claims) {
  std::vector<double> granted(claims.size());
  FairShareScratch scratch;
  weighted_fair_allocate(capacity, claims, granted, scratch);
  return granted;
}

inline std::vector<double> allocate(CpuScheduler& cpu, double dt,
                                    std::span<const TenantDemand> demands) {
  std::vector<double> core_seconds(demands.size());
  cpu.allocate(dt, demands, core_seconds);
  return core_seconds;
}

inline std::vector<DiskGrant> serve(BlockDevice& disk, double dt,
                                    std::span<const TenantDemand> demands) {
  std::vector<DiskGrant> grants(demands.size());
  disk.serve(dt, demands, grants);
  return grants;
}

inline std::vector<MemoryGrant> compute(MemorySystem& mem, double dt,
                                        std::span<const TenantDemand> demands,
                                        std::span<const double> cpu_core_seconds) {
  std::vector<MemoryGrant> grants(demands.size());
  mem.compute(dt, demands, cpu_core_seconds, grants);
  return grants;
}

inline std::vector<TenantGrant> arbitrate(Server& server, double dt,
                                          std::span<const TenantDemand> demands) {
  std::vector<TenantGrant> grants(demands.size());
  server.arbitrate(dt, demands, grants);
  return grants;
}

}  // namespace perfcloud::hw
