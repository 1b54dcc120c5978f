// Hypervisor: hosts VMs on one physical server, drives the per-tick
// arbitration, and exposes the libvirt-style control/observation API that
// PerfCloud's node manager uses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/server.hpp"
#include "sim/types.hpp"
#include "virt/vm.hpp"

namespace perfcloud::virt {

/// Global kill switch for the idle-host fast paths (hypervisor tick
/// early-out, node-manager quiescent step). Always on in production; the
/// state-identity tests switch it off for their full-path reference run.
/// The override is process-wide.
[[nodiscard]] bool idle_fastpath_enabled();
void set_idle_fastpath_enabled(bool enabled);

/// Per-host KVM-like hypervisor.
///
/// Each tick it collects demand from every resident VM's guest (clamped to
/// the VM's vCPU allotment and cgroup caps), lets the physical server
/// arbitrate, then routes grants back to the guests and accounts them into
/// the VMs' cgroups. Resident order is stable, which keeps the hardware
/// models' positional jitter state attached to the same VM over time.
class Hypervisor {
 public:
  explicit Hypervisor(hw::ServerConfig server_cfg, sim::Rng rng)
      : server_(std::move(server_cfg), rng) {}

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  /// Boot a VM on this host. The hypervisor owns it.
  Vm& boot(VmConfig cfg);

  /// Remove a VM from this host and hand over ownership (live-migration
  /// source side). The VM keeps its cgroup counters and guest state.
  /// Throws if the VM is unknown.
  [[nodiscard]] std::unique_ptr<Vm> evict(int vm_id);

  /// Accept a VM migrated from another host (destination side).
  Vm& adopt(std::unique_ptr<Vm> vm);

  [[nodiscard]] const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }
  [[nodiscard]] Vm* find(int vm_id);
  [[nodiscard]] const Vm* find(int vm_id) const;
  [[nodiscard]] hw::Server& server() { return server_; }

  /// Advance one arbitration tick ending at `now`. Quiescent hosts take an
  /// O(1) early-out (see is_quiescent): with no demand anywhere, arbitration
  /// grants nothing and accounts nothing, so skipping it is state-identical
  /// on an empty host and unobservable on a host of finished guests (the
  /// disk's idle jitter stream freezes, but jitter only surfaces through
  /// served I/O, which quiescence rules out).
  void tick(sim::SimTime now, double dt);

  // --- Quiescence (idle-host fast path) ---
  /// True when nothing on this host can change simulation state during a
  /// tick: every resident VM is unpaused with no guest (or a finished one)
  /// and carries no cgroup cap, and the disk is not degraded by a fault.
  /// O(1) when the answer was true last time and no activity intervened
  /// (guest completion is monotone, so quiescence can only end through an
  /// explicit activity event); O(#vms) otherwise.
  [[nodiscard]] bool is_quiescent(sim::SimTime now) const;
  /// Counter bumped by every event that can end quiescence — boot, adopt,
  /// evict, guest attach/detach, pause/unpause, cap set/clear, disk
  /// degradation. Monitors key their cached "settled" state to it.
  [[nodiscard]] std::uint64_t activity_epoch() const { return activity_epoch_; }
  void note_activity() {
    ++activity_epoch_;
    quiescent_ = false;
  }

  // --- Live-migration inflows (destination side, DESIGN.md §5j) ---
  /// While a VM's pre-copy is in flight, the destination host's block
  /// device serves the page stream (received state landing in the image
  /// store) as one extra tenant at `bytes_per_sec`. The flow contends in
  /// arbitration like any VM — which is exactly how an incoming migration
  /// inflates the neighbours' iowait — but receives no guest-visible
  /// grants and is not rate-adaptive (the cost model fixes the copy
  /// duration; congestion shows up as neighbour interference, not as a
  /// longer copy). Throws on duplicate vm_id or non-positive bandwidth.
  void begin_migration_in(int vm_id, double bytes_per_sec);
  /// End the flow (migration finished or aborted); unknown id is a no-op.
  void end_migration_in(int vm_id);
  [[nodiscard]] std::size_t migration_inflow_count() const { return migration_in_.size(); }

  /// Fault hook (DiskDegrade), routed through the hypervisor so quiescence
  /// tracking sees it. 1.0 restores full throughput.
  void set_disk_degradation(double factor);

  // --- libvirt-style API used by the node manager ---
  /// Apply a CPU hard cap (vcpu_quota) in cores. Throws if the VM is unknown.
  void set_vcpu_quota(int vm_id, double cores);
  void clear_vcpu_quota(int vm_id);
  /// Apply a blkio throttle in bytes/second.
  void set_blkio_throttle(int vm_id, sim::Bytes bytes_per_sec);
  void clear_blkio_throttle(int vm_id);
  /// Read the VM's cumulative cgroup counters (blkio + perf_event + cpuacct).
  [[nodiscard]] const CgroupStats& dom_stats(int vm_id) const;

 private:
  Vm& require(int vm_id);
  [[nodiscard]] const Vm& require(int vm_id) const;
  [[nodiscard]] int pick_numa_node(int vcpus) const;

  struct MigrationInflow {
    int vm_id = 0;
    double bytes_per_sec = 0.0;
  };

  hw::Server server_;
  std::vector<std::unique_ptr<Vm>> vms_;
  /// Active incoming pre-copy streams, in begin order. Appended AFTER the
  /// resident VMs' demands each tick so the hardware models' positional
  /// jitter state stays attached to the same VM across a migration.
  std::vector<MigrationInflow> migration_in_;
  std::uint64_t activity_epoch_ = 1;
  /// Cached "is_quiescent returned true"; cleared by note_activity. Only a
  /// true answer is cached — false must be recomputed because guests finish
  /// without notifying anyone.
  mutable bool quiescent_ = false;
  // Per-tick scratch (one slot per resident VM, then one per inflow),
  // retained so a warmed busy host ticks without allocating. Grown on the
  // first non-quiescent tick, never reserved up front.
  std::vector<hw::TenantDemand> demands_;
  std::vector<hw::TenantGrant> grants_;
};

}  // namespace perfcloud::virt
