// Physical server: composition of CPU scheduler, block device, and memory
// subsystem, arbitrated once per simulation tick.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/disk.hpp"
#include "hw/memory.hpp"
#include "hw/tenant.hpp"
#include "sim/rng.hpp"

namespace perfcloud::hw {

struct ServerConfig {
  std::string name = "server";
  CpuConfig cpu;
  DiskConfig disk;
  /// Per-socket memory subsystem configuration (LLC size and bandwidth are
  /// PER SOCKET when sockets > 1).
  MemoryConfig memory;
  /// NUMA sockets. 1 (default) reproduces the paper's single shared memory
  /// domain; 2 models the R630's dual-socket reality, where tenants only
  /// contend with same-socket neighbours (§IV-D future work).
  int sockets = 1;
  /// Installed DRAM — the capacity side of VM admission (placement and
  /// migration destinations must fit resident + inbound VM memory under
  /// this; bandwidth lives in MemoryConfig). Paper's R630: 256 GB.
  sim::Bytes dram = 256.0 * 1024 * 1024 * 1024;
};

/// One bare-metal host (the paper's Dell R630). The hypervisor presents the
/// demand vector of its resident VMs each tick; the server returns what each
/// VM actually received, from which cgroup counters are accumulated.
class Server {
 public:
  Server(ServerConfig cfg, sim::Rng rng);

  [[nodiscard]] const ServerConfig& config() const { return cfg_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }

  /// Arbitrate one tick: writes demands[i]'s grant to `grants[i]` (the
  /// spans have equal length). Demand order must be stable across ticks
  /// (per-slot jitter state in the disk and memory models is positional).
  void arbitrate(double dt, std::span<const TenantDemand> demands, std::span<TenantGrant> grants);

  [[nodiscard]] double last_disk_utilization() const { return disk_.last_utilization(); }

  /// Fault hook (DiskDegrade): forwarded to the block device. 1.0 = healthy.
  void set_disk_degradation(double factor) { disk_.set_throughput_degradation(factor); }
  [[nodiscard]] double disk_degradation() const { return disk_.throughput_degradation(); }
  /// Max over sockets: the most-contended memory domain's utilization.
  [[nodiscard]] double last_bw_utilization() const;

  [[nodiscard]] int sockets() const { return cfg_.sockets; }

 private:
  ServerConfig cfg_;
  CpuScheduler cpu_;
  BlockDevice disk_;
  std::vector<MemorySystem> memory_;  ///< One per socket.

  // Per-tick temporaries, retained so a warmed host allocates nothing.
  std::vector<double> cpu_sec_;
  std::vector<MemoryGrant> mem_;
  std::vector<DiskGrant> disk_grants_;
  // One socket's share of the tenants, rebuilt for each socket.
  std::vector<TenantDemand> socket_demands_;
  std::vector<double> socket_cpu_;
  std::vector<std::size_t> socket_index_;
  std::vector<MemoryGrant> socket_mem_;
};

}  // namespace perfcloud::hw
