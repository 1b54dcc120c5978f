#include "core/monitor.hpp"

namespace perfcloud::core {

const sim::TimeSeries PerformanceMonitor::kEmptySeries{};

void PerformanceMonitor::sample(sim::SimTime now) {
  const double dt = cfg_.sample_interval_s;
  // Settledness for the fast path: every VM primed and every delta zero.
  // Recorded against the hypervisor's activity epoch BEFORE the counter
  // reads — if activity lands mid-sample the recorded epoch is stale and
  // can_fast_sample stays false, which is the safe direction.
  bool all_settled = !blackout_all_ && blackout_.empty();
  const std::uint64_t epoch = hv_.activity_epoch();
  const bool any_dark = blackout_all_ || !blackout_.empty();

  for (const auto& vm : hv_.vms()) {
    VmState& s = state(vm->id());
    if (any_dark && (blackout_all_ || blackout_.contains(vm->id()))) {
      // Dark: record nothing, and forget the counter baseline so the first
      // post-blackout interval re-primes instead of emitting the cumulative
      // delta of the whole dark period as one spike.
      s.primed = false;
      s.has_latest = false;
      continue;
    }
    const virt::CgroupStats& cur = vm->cgroup().stats();
    if (!s.primed) {
      s.prev = cur;
      s.primed = true;
      all_settled = false;
      continue;
    }
    const double d_wait_ms = cur.io_wait_time_ms - s.prev.io_wait_time_ms;
    const double d_ops = cur.io_serviced_ops - s.prev.io_serviced_ops;
    const double d_bytes = cur.io_service_bytes - s.prev.io_service_bytes;
    const double d_cycles = cur.cycles - s.prev.cycles;
    const double d_instr = cur.instructions - s.prev.instructions;
    const double d_misses = cur.llc_misses - s.prev.llc_misses;
    const double d_cpu = cur.cpu_time_s - s.prev.cpu_time_s;
    s.prev = cur;
    all_settled = all_settled && d_wait_ms == 0.0 && d_ops == 0.0 && d_bytes == 0.0 &&
                  d_cycles == 0.0 && d_instr == 0.0 && d_misses == 0.0 && d_cpu == 0.0;

    VmSample& out = s.latest;
    out = VmSample{};
    s.has_latest = true;
    // The first EWMA update of a metric is the raw sample — one noisy
    // interval would masquerade as a trend. Deviations are only meaningful
    // once every contributing VM's smoother is warmed, so a metric is
    // reported from its second update onward.
    if (d_ops >= cfg_.min_ops_per_interval) {
      const double v = s.iowait.update(d_wait_ms / d_ops);
      if (++s.iowait_updates >= 2) out.iowait_ratio_ms = v;
    }
    if (d_instr > 0.0) {
      const double v = s.cpi.update(d_cycles / d_instr);
      if (++s.cpi_updates >= 2) out.cpi = v;
    }
    out.io_throughput_bps = s.io_bps.update(d_bytes / dt);
    out.io_ops_per_s = d_ops / dt;
    out.cpu_usage_cores = s.cpu.update(d_cpu / dt);
    // "LLC miss rates are not counted when the VM is not running any
    // workload" (§III-B): a sample exists only when the VM burned CPU.
    if (d_cpu > 0.05 * dt) {
      const double v = s.llc.update(d_misses / dt);
      out.llc_miss_rate = v;
      s.llc_series.add(now, v);
    }
    s.io_series.add(now, out.io_throughput_bps);
  }

  settled_ = all_settled;
  settled_epoch_ = epoch;
}

bool PerformanceMonitor::can_fast_sample() const {
  return settled_ && settled_epoch_ == hv_.activity_epoch() && !blackout_all_ &&
         blackout_.empty();
}

void PerformanceMonitor::record_settled(sim::SimTime now) {
  for (const auto& vm : hv_.vms()) {
    VmState& s = state(vm->id());
    // Exactly what the zero-delta branch of sample() records: the gated
    // metrics (iowait, CPI, LLC) skip, the always-on smoothers decay on a
    // zero sample, and the throughput series gains one point.
    s.latest = VmSample{};
    s.latest.io_throughput_bps = s.io_bps.update(0.0);
    s.latest.cpu_usage_cores = s.cpu.update(0.0);
    s.has_latest = true;
    s.io_series.add(now, s.latest.io_throughput_bps);
  }
}

void PerformanceMonitor::forget_vm(int vm_id) {
  vms_.erase(vm_id);
  // The row population changed; force the next sample down the full path
  // (eviction/adoption bumped the hypervisor's activity epoch anyway, but
  // don't rely on it from here).
  settled_ = false;
}

void PerformanceMonitor::set_blackout(int vm_id, bool dark) {
  if (dark) {
    blackout_.insert(vm_id);
  } else {
    blackout_.erase(vm_id);
  }
  settled_ = false;
}

void PerformanceMonitor::set_blackout_all(bool dark) {
  blackout_all_ = dark;
  settled_ = false;
}

const VmSample* PerformanceMonitor::latest(int vm_id) const {
  const VmState* s = vms_.find(vm_id);
  return s == nullptr || !s->has_latest ? nullptr : &s->latest;
}

const sim::TimeSeries& PerformanceMonitor::io_throughput_series(int vm_id) const {
  const VmState* s = vms_.find(vm_id);
  return s == nullptr ? kEmptySeries : s->io_series;
}

const sim::TimeSeries& PerformanceMonitor::llc_miss_series(int vm_id) const {
  const VmState* s = vms_.find(vm_id);
  return s == nullptr ? kEmptySeries : s->llc_series;
}

double PerformanceMonitor::observed_io_bps(int vm_id) const {
  const VmState* s = vms_.find(vm_id);
  return s == nullptr ? 0.0 : s->io_bps.value();
}

double PerformanceMonitor::observed_cpu_cores(int vm_id) const {
  const VmState* s = vms_.find(vm_id);
  return s == nullptr ? 0.0 : s->cpu.value();
}

double PerformanceMonitor::observed_llc_rate(int vm_id) const {
  const VmState* s = vms_.find(vm_id);
  return s == nullptr ? 0.0 : s->llc.value();
}

}  // namespace perfcloud::core
