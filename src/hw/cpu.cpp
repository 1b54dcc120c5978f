#include "hw/cpu.hpp"

namespace perfcloud::hw {

void CpuScheduler::allocate(double dt, std::span<const TenantDemand> demands,
                            std::span<double> core_seconds) {
  claims_.clear();
  for (const TenantDemand& d : demands) {
    claims_.push_back(Claim{
        .demand = d.cpu_core_seconds,
        .weight = d.cpu_weight,
        .cap = d.cpu_cap_cores * dt,
    });
  }
  weighted_fair_allocate(capacity(dt), claims_, core_seconds, fair_);
}

}  // namespace perfcloud::hw
