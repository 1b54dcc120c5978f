// Performance monitor: the per-host metric collection half of PerfCloud
// (§III-D.1).
//
// Every sampling interval it reads each resident VM's cumulative cgroup
// counters through the hypervisor (as the real system does via libvirt and
// perf_event), computes interval deltas, smooths them with an EWMA, and
// appends them to per-VM time series:
//   - high-priority VMs: block-iowait ratio (ms/op) and CPI;
//   - low-priority VMs: I/O throughput (bytes/s), LLC miss rate (misses/s),
//     and CPU usage (cores) — the suspect-side signals and the baselines
//     used to initialize resource caps.
//
// Memory layout (DESIGN.md §5l): one VmState row per resident VM in a
// sim::SlotMap keyed by VM id — counter baseline, update counts, one
// sim::Ewma per metric, latest sample, and the suspect-side series. A
// sample walks the resident VMs once and updates each row in place; a
// recycled slot is constructed fresh, so a departed VM's state never leaks
// into its successor.
#pragma once

#include <cstdint>
#include <optional>
#include <set>

#include "core/config.hpp"
#include "sim/ewma.hpp"
#include "sim/slot_store.hpp"
#include "sim/time_series.hpp"
#include "virt/hypervisor.hpp"

namespace perfcloud::core {

/// The smoothed interval metrics of one VM at one sample time.
struct VmSample {
  std::optional<double> iowait_ratio_ms;  ///< Missing when the VM did ~no I/O.
  std::optional<double> cpi;              ///< Missing when no instructions retired.
  double io_throughput_bps = 0.0;
  double io_ops_per_s = 0.0;
  std::optional<double> llc_miss_rate;    ///< Missing when the VM ran nothing.
  double cpu_usage_cores = 0.0;
};

class PerformanceMonitor {
 public:
  PerformanceMonitor(virt::Hypervisor& hv, PerfCloudConfig cfg)
      : hv_(hv), cfg_(cfg) {}

  /// Take one sample of every resident VM at time `now`. Call exactly once
  /// per interval, after the host's arbitration tick.
  void sample(sim::SimTime now);

  // --- Idle-host fast path ---
  /// True when the last full sample saw every resident VM fully settled —
  /// counter baseline primed, all interval deltas zero, no blackout — and no
  /// hypervisor activity has happened since. While this holds (and the host
  /// stays quiescent), cgroup counters cannot change, so `record_settled`
  /// reproduces the next full sample without reading a single counter.
  [[nodiscard]] bool can_fast_sample() const;
  /// The fast-path equivalent of `sample(now)`, valid only while
  /// can_fast_sample(): replays exactly the appends and EWMA decays a full
  /// sample performs on a settled host (zero deltas feed the throughput and
  /// CPU smoothers, one io_series point per VM; the gated metrics — iowait,
  /// CPI, LLC — record nothing, as they would with zero deltas). Series
  /// stay byte-identical to the slow path.
  void record_settled(sim::SimTime now);

  /// Latest sample of a VM; nullptr before the first sample. The pointer is
  /// valid until the next sample()/record_settled() call (sampling a
  /// never-seen VM may grow the slot store and move every row).
  [[nodiscard]] const VmSample* latest(int vm_id) const;

  /// Suspect-side series used by the antagonist identifier; unknown ids get
  /// a shared empty series. Same validity rule as latest().
  [[nodiscard]] const sim::TimeSeries& io_throughput_series(int vm_id) const;
  [[nodiscard]] const sim::TimeSeries& llc_miss_series(int vm_id) const;

  /// Observation baselines for cap initialization ("the VM's observed CPU
  /// usage or I/O throughput", §III-C); smoothed current values. The LLC
  /// miss rate is the third axis of the policy layer's usage vectors
  /// (src/policy/ complementary-placement scoring).
  [[nodiscard]] double observed_io_bps(int vm_id) const;
  [[nodiscard]] double observed_cpu_cores(int vm_id) const;
  [[nodiscard]] double observed_llc_rate(int vm_id) const;

  /// Migration handoff: drop every trace of a VM that left this host —
  /// counter baseline, EWMAs, series, latest sample. If the VM ever comes
  /// back, its first sample re-primes the cumulative baseline (its counters
  /// kept growing on the other host; a kept baseline would book all of that
  /// as one interval's delta). Unknown ids are a no-op. NOT used on the
  /// crash path: a crashed VM's series stay frozen for post-mortem reads,
  /// and its id never returns.
  void forget_vm(int vm_id);

  // --- Fault hooks (MonitorBlackout) ---
  /// Drop every sample of one VM (no series appends, no latest) until
  /// cleared. On recovery the next interval only re-primes the cumulative
  /// baseline — otherwise the whole blackout's worth of counter deltas would
  /// land in one sample as a spike.
  void set_blackout(int vm_id, bool dark);
  /// Darken (or clear) the whole host's monitor at once.
  void set_blackout_all(bool dark);
  [[nodiscard]] bool blacked_out(int vm_id) const {
    return blackout_all_ || blackout_.contains(vm_id);
  }

 private:
  /// Everything the monitor knows about one VM.
  struct VmState {
    explicit VmState(const PerfCloudConfig& cfg)
        : iowait(cfg.ewma_alpha),
          cpi(cfg.ewma_alpha),
          io_bps(cfg.ewma_alpha),
          llc(cfg.ewma_alpha),
          cpu(cfg.ewma_alpha),
          io_series({}, cfg.monitor_series_capacity),
          llc_series({}, cfg.monitor_series_capacity) {}

    virt::CgroupStats prev;  ///< Cumulative-counter baseline.
    bool primed = false;     ///< `prev` holds a real reading.
    std::uint32_t iowait_updates = 0;
    std::uint32_t cpi_updates = 0;
    sim::Ewma iowait;
    sim::Ewma cpi;
    sim::Ewma io_bps;
    sim::Ewma llc;
    sim::Ewma cpu;
    VmSample latest;
    bool has_latest = false;
    sim::TimeSeries io_series;
    sim::TimeSeries llc_series;
  };

  /// State of a VM, constructed fresh on first sight.
  VmState& state(int vm_id) { return *vms_.try_emplace(vm_id, cfg_).first; }

  virt::Hypervisor& hv_;
  PerfCloudConfig cfg_;

  /// Keyed by VM id; forget_vm erases a row, and SlotMap constructs a
  /// recycled slot fresh.
  sim::SlotMap<VmState> vms_;

  std::set<int> blackout_;     ///< Individually darkened VM ids.
  bool blackout_all_ = false;  ///< Whole-host blackout.
  bool settled_ = false;       ///< Last full sample saw only settled VMs.
  std::uint64_t settled_epoch_ = 0;  ///< hv activity epoch at that sample.
  static const sim::TimeSeries kEmptySeries;
};

}  // namespace perfcloud::core
