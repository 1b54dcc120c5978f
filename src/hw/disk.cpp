#include "hw/disk.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace perfcloud::hw {

void BlockDevice::set_throughput_degradation(double factor) {
  if (!(factor > 0.0 && factor <= 1.0)) {
    throw std::invalid_argument("disk degradation factor must be in (0, 1]");
  }
  degradation_ = factor;
}

void BlockDevice::serve(double dt, std::span<const TenantDemand> demands,
                        std::span<DiskGrant> grants) {
  const std::size_t n = demands.size();
  assert(grants.size() == n);
  std::fill(grants.begin(), grants.end(), DiskGrant{});
  if (n == 0 || dt <= 0.0) return;

  const double t_op = 1.0 / (cfg_.iops_capacity * degradation_);  // seek/queue cost per op
  const double inv_bw = 1.0 / (cfg_.bw_capacity * degradation_);  // transfer cost per byte

  jitter_.advance(n, dt, rng_);

  // 1. Apply blkio throttles: scale ops and bytes together so the request
  //    mix is preserved (the throttler delays whole requests). The grants
  //    hold the throttled demand until step 3 scales it to what was served.
  for (std::size_t i = 0; i < n; ++i) {
    const TenantDemand& d = demands[i];
    double scale = 1.0;
    if (d.io_bytes > 0.0 && d.io_cap_bytes_per_sec != kNoCap) {
      scale = std::min(scale, d.io_cap_bytes_per_sec * dt / d.io_bytes);
    }
    if (d.io_ops > 0.0 && d.io_cap_iops != kNoCap) {
      scale = std::min(scale, d.io_cap_iops * dt / d.io_ops);
    }
    scale = std::clamp(scale, 0.0, 1.0);
    grants[i].ops = d.io_ops * scale;
    grants[i].bytes = d.io_bytes * scale;
  }

  // 2. Convert to device-seconds (each op costs a seek plus its transfer)
  //    and water-fill the device's dt seconds of service capacity.
  claims_.resize(n);
  double total_need = 0.0;
  double bursty_need = 0.0;  // device-seconds offered by deep-queue tenants
  for (std::size_t i = 0; i < n; ++i) {
    const double need = grants[i].ops * t_op + grants[i].bytes * inv_bw;
    claims_[i] = Claim{.demand = need, .weight = demands[i].io_weight, .cap = need};
    total_need += need;
    // "Burstiness" of a stream: the fraction of its queue occupancy beyond
    // a fair shallow queue, 1 - 1/weight, times its offered device time.
    bursty_need += (1.0 - 1.0 / std::max(demands[i].io_weight, 1.0)) * need;
  }
  granted_sec_.resize(n);
  weighted_fair_allocate(dt, claims_, granted_sec_, fair_);

  const double rho = total_need / dt;
  last_utilization_ = rho;
  const double qfactor = std::min(rho, cfg_.queue_factor_max);

  // 3. Fill grants. Wait per op = own service time x queue factor x jitter;
  //    the jitter sigma is dominated by bursty foreign load (see header).
  for (std::size_t i = 0; i < n; ++i) {
    const double need = claims_[i].demand;
    const double scale = need > 0.0 ? granted_sec_[i] / need : 0.0;
    DiskGrant& g = grants[i];
    g.ops *= scale;
    g.bytes *= scale;

    if (g.ops > 0.0) {
      const double my_share = total_need > 0.0 ? need / total_need : 0.0;
      const double plain_foreign = std::min(rho * (1.0 - my_share), cfg_.jitter_scale_cap);
      const double my_burst = (1.0 - 1.0 / std::max(demands[i].io_weight, 1.0)) * need;
      const double burst_foreign = (bursty_need - my_burst) / dt;
      const double sigma_scale =
          std::min(cfg_.plain_jitter_coeff * plain_foreign + cfg_.burst_jitter_coeff * burst_foreign,
                   cfg_.jitter_scale_cap);
      const double jitter = std::exp(cfg_.wait_jitter_sigma * sigma_scale * jitter_[i]);
      const double per_op_service = granted_sec_[i] / g.ops;
      g.wait_seconds = g.ops * per_op_service * qfactor * jitter * cfg_.wait_scale;
    }
  }
}

}  // namespace perfcloud::hw
