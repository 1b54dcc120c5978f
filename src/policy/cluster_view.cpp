#include "policy/cluster_view.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfcloud::policy {

ClusterView::ClusterView(cloud::CloudManager& cloud, std::vector<core::NodeManager*> nms)
    : cloud_(cloud), nms_(std::move(nms)) {
  const std::vector<std::string> names = cloud_.host_names();
  if (nms_.size() != names.size()) {
    throw std::invalid_argument("ClusterView: need one node manager per host (" +
                                std::to_string(nms_.size()) + " for " +
                                std::to_string(names.size()) + " hosts)");
  }
  hosts_.resize(names.size());
  hvs_.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    virt::Hypervisor& hv = cloud_.host(names[i]);
    hvs_.push_back(&hv);
    HostView& h = hosts_[i];
    h.name = names[i];
    h.index = i;
    const hw::ServerConfig& cfg = hv.server().config();
    h.cores = cfg.cpu.cores;
    h.dram = cfg.dram;
    h.disk_bw = cfg.disk.bw_capacity;
  }
}

std::size_t ClusterView::index_of(const std::string& name) const {
  for (const HostView& h : hosts_) {
    if (h.name == name) return h.index;
  }
  return npos;
}

const VmUsage* ClusterView::find_vm(std::size_t host_index, int vm_id) const {
  for (const VmUsage& u : hosts_[host_index].vms) {
    if (u.vm_id == vm_id) return &u;
  }
  return nullptr;
}

void ClusterView::rebuild_residents(HostView& h) {
  h.vms.clear();
  for (const auto& vm : hvs_[h.index]->vms()) {
    const virt::VmConfig& cfg = vm->config();
    VmUsage u;
    u.vm_id = cfg.id;
    u.vcpus = cfg.vcpus;
    u.memory = cfg.memory;
    u.priority = cfg.priority;
    u.app = cloud_.app_interner().lookup(cfg.app_id);
    h.vms.push_back(u);
  }
  // Hypervisor order is adoption order, which depends on migration history;
  // VM ids are cloud-unique and monotone, so id order is the deterministic
  // canonical order.
  std::sort(h.vms.begin(), h.vms.end(),
            [](const VmUsage& a, const VmUsage& b) { return a.vm_id < b.vm_id; });
}

void ClusterView::refresh_host(HostView& h, core::NodeManager& nm) {
  const core::PerformanceMonitor& mon = nm.monitor();
  const double floor = nm.config().min_cap_fraction;
  h.cpu_cores_used = 0.0;
  h.io_bps = 0.0;
  h.llc_rate = 0.0;
  for (VmUsage& u : h.vms) {
    u.cpu_cores = mon.observed_cpu_cores(u.vm_id);
    u.io_bps = mon.observed_io_bps(u.vm_id);
    u.llc_rate = mon.observed_llc_rate(u.vm_id);
    u.io_cap = -1.0;
    u.cpu_cap = -1.0;
    u.io_at_floor = false;
    u.cpu_at_floor = false;
    h.cpu_cores_used += u.cpu_cores;
    h.io_bps += u.io_bps;
    h.llc_rate += u.llc_rate;
  }
  const auto fold_cap = [&](int vm_id, double cap, bool ever_decreased, bool io) {
    for (VmUsage& u : h.vms) {
      if (u.vm_id != vm_id) continue;
      // "At floor" means the controller actually drove the cap down to its
      // clamp, not that a fresh controller happens to start there.
      const bool at_floor = ever_decreased && cap <= floor + 1e-12;
      if (io) {
        u.io_cap = cap;
        u.io_at_floor = at_floor;
      } else {
        u.cpu_cap = cap;
        u.cpu_at_floor = at_floor;
      }
      return;
    }
  };
  nm.for_each_io_cap([&](int vm_id, double cap, bool dec) { fold_cap(vm_id, cap, dec, true); });
  nm.for_each_cpu_cap([&](int vm_id, double cap, bool dec) { fold_cap(vm_id, cap, dec, false); });
  h.max_io_dev = -1.0;
  h.max_cpi_dev = -1.0;
  nm.for_each_protected_app([&](core::NodeManager::AppId app) {
    h.max_io_dev = std::max(h.max_io_dev, nm.latest_io_deviation(app));
    h.max_cpi_dev = std::max(h.max_cpi_dev, nm.latest_cpi_deviation(app));
  });
}

void ClusterView::refresh(sim::SimTime now) {
  const std::uint64_t version = cloud_.registry_version();
  if (last_refresh_ == now && seen_registry_version_ == version) return;
  const bool rebuild = seen_registry_version_ != version;
  last_refresh_ = now;
  seen_registry_version_ = version;
  max_host_llc_rate_ = 0.0;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    HostView& h = hosts_[i];
    h.up = cloud_.host_up_at(h.index);
    if (rebuild) rebuild_residents(h);
    refresh_host(h, *nms_[i]);
    max_host_llc_rate_ = std::max(max_host_llc_rate_, h.llc_rate);
  }
}

}  // namespace perfcloud::policy
