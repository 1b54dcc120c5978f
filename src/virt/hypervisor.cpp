#include "virt/hypervisor.hpp"

#include <atomic>
#include <algorithm>
#include <stdexcept>
#include <vector>
#include <string>

namespace perfcloud::virt {

namespace {
std::atomic<bool> g_idle_fastpath{true};
}  // namespace

bool idle_fastpath_enabled() { return g_idle_fastpath.load(std::memory_order_relaxed); }
void set_idle_fastpath_enabled(bool enabled) {
  g_idle_fastpath.store(enabled, std::memory_order_relaxed);
}

void notify_vm_activity(Hypervisor* hv) {
  if (hv != nullptr) hv->note_activity();
}

Vm& Hypervisor::boot(VmConfig cfg) {
  if (find(cfg.id) != nullptr) {
    throw std::invalid_argument("duplicate VM id " + std::to_string(cfg.id));
  }
  const int requested = cfg.numa_node;
  vms_.push_back(std::make_unique<Vm>(std::move(cfg)));
  Vm& vm = *vms_.back();
  vm.set_host(this);
  vm.set_numa_node(requested >= 0 ? requested : pick_numa_node(vm.vcpus()));
  note_activity();
  return vm;
}

int Hypervisor::pick_numa_node(int /*vcpus*/) const {
  // Least-loaded socket by resident vCPU count.
  const int sockets = server_.sockets();
  if (sockets <= 1) return 0;
  std::vector<int> load(static_cast<std::size_t>(sockets), 0);
  for (const auto& vm : vms_) {
    const int node = std::clamp(vm->numa_node(), 0, sockets - 1);
    load[static_cast<std::size_t>(node)] += vm->vcpus();
  }
  int best = 0;
  for (int s = 1; s < sockets; ++s) {
    if (load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(best)]) best = s;
  }
  return best;
}

std::unique_ptr<Vm> Hypervisor::evict(int vm_id) {
  for (auto it = vms_.begin(); it != vms_.end(); ++it) {
    if ((*it)->id() == vm_id) {
      std::unique_ptr<Vm> vm = std::move(*it);
      vms_.erase(it);
      vm->set_host(nullptr);
      note_activity();
      return vm;
    }
  }
  throw std::invalid_argument("unknown VM id " + std::to_string(vm_id));
}

Vm& Hypervisor::adopt(std::unique_ptr<Vm> vm) {
  if (find(vm->id()) != nullptr) {
    throw std::invalid_argument("duplicate VM id " + std::to_string(vm->id()));
  }
  vms_.push_back(std::move(vm));
  vms_.back()->set_host(this);
  note_activity();
  return *vms_.back();
}

Vm* Hypervisor::find(int vm_id) {
  for (const auto& vm : vms_) {
    if (vm->id() == vm_id) return vm.get();
  }
  return nullptr;
}

const Vm* Hypervisor::find(int vm_id) const {
  return const_cast<Hypervisor*>(this)->find(vm_id);
}

Vm& Hypervisor::require(int vm_id) {
  Vm* vm = find(vm_id);
  if (vm == nullptr) throw std::invalid_argument("unknown VM id " + std::to_string(vm_id));
  return *vm;
}

const Vm& Hypervisor::require(int vm_id) const {
  return const_cast<Hypervisor*>(this)->require(vm_id);
}

void Hypervisor::begin_migration_in(int vm_id, double bytes_per_sec) {
  if (bytes_per_sec <= 0.0) {
    throw std::invalid_argument("migration bandwidth must be positive");
  }
  for (const MigrationInflow& f : migration_in_) {
    if (f.vm_id == vm_id) {
      throw std::logic_error("duplicate migration inflow for VM " + std::to_string(vm_id));
    }
  }
  migration_in_.push_back(MigrationInflow{vm_id, bytes_per_sec});
  note_activity();
}

void Hypervisor::end_migration_in(int vm_id) {
  const auto removed =
      std::erase_if(migration_in_, [&](const MigrationInflow& f) { return f.vm_id == vm_id; });
  if (removed > 0) note_activity();
}

bool Hypervisor::is_quiescent(sim::SimTime now) const {
  if (quiescent_) return true;
  // An incoming pre-copy stream keeps the disk busy every tick.
  if (!migration_in_.empty()) return false;
  if (server_.disk_degradation() != 1.0) return false;
  for (const auto& vm : vms_) {
    if (vm->paused()) return false;
    const GuestWorkload* guest = vm->guest();
    if (guest != nullptr && !guest->finished(now)) return false;
    const Cgroup& cg = vm->cgroup();
    if (cg.cpu_quota_cores() != hw::kNoCap || cg.blkio_throttle_bps() != hw::kNoCap ||
        cg.blkio_throttle_iops() != hw::kNoCap) {
      return false;
    }
  }
  quiescent_ = true;
  return true;
}

void Hypervisor::set_disk_degradation(double factor) {
  server_.set_disk_degradation(factor);
  note_activity();
}

void Hypervisor::tick(sim::SimTime now, double dt) {
  // Idle-host fast path: a quiescent host has all-zero demand, so the whole
  // arbitrate/account/apply round is a no-op — skip it.
  if (idle_fastpath_enabled() && is_quiescent(now)) return;

  demands_.clear();
  for (const auto& vm : vms_) {
    hw::TenantDemand d{};
    if (!vm->idle(now)) {
      d = vm->guest()->demand(now, dt);
    }
    // The guest can never demand more CPU than its vCPUs can run.
    d.cpu_core_seconds = std::min(d.cpu_core_seconds, static_cast<double>(vm->vcpus()) * dt);
    // Attach the cgroup's caps.
    const Cgroup& cg = vm->cgroup();
    d.cpu_cap_cores = std::min(cg.cpu_quota_cores(), static_cast<double>(vm->vcpus()));
    d.io_cap_bytes_per_sec = cg.blkio_throttle_bps();
    d.io_cap_iops = cg.blkio_throttle_iops();
    d.numa_node = vm->numa_node();
    demands_.push_back(d);
  }

  // Incoming pre-copy streams, after the resident VMs (positional jitter
  // state stays attached to the same VM). Pages land as large sequential
  // writes; the grants routed back to these slots are discarded below.
  constexpr double kMigrationIoBlockBytes = 1.0 * 1024 * 1024;
  for (const MigrationInflow& f : migration_in_) {
    hw::TenantDemand d{};
    d.io_bytes = f.bytes_per_sec * dt;
    d.io_ops = d.io_bytes / kMigrationIoBlockBytes;
    demands_.push_back(d);
  }

  grants_.resize(demands_.size());
  server_.arbitrate(dt, demands_, grants_);
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    Vm& vm = *vms_[i];
    vm.cgroup().account(grants_[i]);
    if (!vm.idle(now)) vm.guest()->apply(grants_[i], now, dt);
  }
}

void Hypervisor::set_vcpu_quota(int vm_id, double cores) {
  require(vm_id).cgroup().set_cpu_quota_cores(cores);
  note_activity();
}

void Hypervisor::clear_vcpu_quota(int vm_id) {
  require(vm_id).cgroup().clear_cpu_quota();
  note_activity();
}

void Hypervisor::set_blkio_throttle(int vm_id, sim::Bytes bytes_per_sec) {
  require(vm_id).cgroup().set_blkio_throttle_bps(bytes_per_sec);
  note_activity();
}

void Hypervisor::clear_blkio_throttle(int vm_id) {
  require(vm_id).cgroup().clear_blkio_throttle();
  note_activity();
}

const CgroupStats& Hypervisor::dom_stats(int vm_id) const { return require(vm_id).cgroup().stats(); }

}  // namespace perfcloud::virt
