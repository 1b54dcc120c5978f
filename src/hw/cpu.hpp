// CPU time allocation across tenants of one physical server.
#pragma once

#include <span>
#include <vector>

#include "hw/allocation.hpp"
#include "hw/tenant.hpp"

namespace perfcloud::hw {

struct CpuConfig {
  int cores = 48;            ///< Dell R630 in the paper: 48 cores.
  double clock_hz = 2.3e9;   ///< 2.3 GHz.
};

/// Proportional-share core scheduler with per-tenant hard caps.
///
/// Models the host CFS scheduler as seen through cgroups: each tick the
/// tenants' runnable demand (core-seconds) is served up to min(demand,
/// quota), with weighted fair sharing when the host is oversubscribed.
class CpuScheduler {
 public:
  explicit CpuScheduler(CpuConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const CpuConfig& config() const { return cfg_; }

  /// Core-seconds available per tick of length dt.
  [[nodiscard]] double capacity(double dt) const { return cfg_.cores * dt; }

  /// Allocate core-seconds for one tick: writes demands[i]'s grant to
  /// `core_seconds[i]` (the spans have equal length). Instruction
  /// retirement is computed by the memory model afterwards (CPI depends on
  /// LLC/bandwidth contention).
  void allocate(double dt, std::span<const TenantDemand> demands, std::span<double> core_seconds);

 private:
  CpuConfig cfg_;
  // Per-call temporaries, retained so a warmed host allocates nothing.
  std::vector<Claim> claims_;
  FairShareScratch fair_;
};

}  // namespace perfcloud::hw
