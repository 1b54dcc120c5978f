#include "hw/server.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace perfcloud::hw {

Server::Server(ServerConfig cfg, sim::Rng rng)
    : cfg_(std::move(cfg)), cpu_(cfg_.cpu), disk_(cfg_.disk, rng.split(0xd15c)) {
  if (cfg_.sockets < 1) throw std::invalid_argument("server needs at least one socket");
  memory_.reserve(static_cast<std::size_t>(cfg_.sockets));
  for (int s = 0; s < cfg_.sockets; ++s) {
    memory_.emplace_back(cfg_.memory, rng.split(0x3e3 + static_cast<std::uint64_t>(s)));
  }
}

double Server::last_bw_utilization() const {
  double u = 0.0;
  for (const MemorySystem& m : memory_) u = std::max(u, m.last_bw_utilization());
  return u;
}

void Server::arbitrate(double dt, std::span<const TenantDemand> demands,
                       std::span<TenantGrant> grants) {
  const std::size_t n = demands.size();
  assert(grants.size() == n);
  if (n == 0) return;

  // CPU first: instruction retirement depends on the memory model, which in
  // turn needs to know how much CPU time each tenant ran.
  cpu_sec_.resize(n);
  cpu_.allocate(dt, demands, cpu_sec_);

  // Memory contention is per NUMA socket: partition the tenants, run each
  // socket's model on its residents, and scatter the results back. The
  // partition order is stable (ascending original index), which keeps the
  // per-slot jitter state attached to the same tenant over time as long as
  // the resident set is stable.
  mem_.resize(n);
  for (int socket = 0; socket < cfg_.sockets; ++socket) {
    socket_demands_.clear();
    socket_cpu_.clear();
    socket_index_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const int node = std::clamp(demands[i].numa_node, 0, cfg_.sockets - 1);
      if (node != socket) continue;
      socket_demands_.push_back(demands[i]);
      socket_cpu_.push_back(cpu_sec_[i]);
      socket_index_.push_back(i);
    }
    if (socket_index_.empty()) continue;
    socket_mem_.resize(socket_index_.size());
    memory_[static_cast<std::size_t>(socket)].compute(dt, socket_demands_, socket_cpu_,
                                                      socket_mem_);
    for (std::size_t k = 0; k < socket_index_.size(); ++k) mem_[socket_index_[k]] = socket_mem_[k];
  }

  disk_grants_.resize(n);
  disk_.serve(dt, demands, disk_grants_);

  const double clock = cpu_.config().clock_hz;
  for (std::size_t i = 0; i < n; ++i) {
    const MemoryGrant& m = mem_[i];
    const DiskGrant& d = disk_grants_[i];
    TenantGrant& g = grants[i];
    g.cpu_core_seconds = cpu_sec_[i];
    g.cycles = cpu_sec_[i] * clock;
    g.cpi = m.cpi;
    g.instructions = g.cpi > 0.0 ? g.cycles / g.cpi : 0.0;
    g.llc_misses = m.llc_misses;
    g.mem_bw_bytes = m.bw_bytes;
    g.io_ops = d.ops;
    g.io_bytes = d.bytes;
    g.io_wait_seconds = d.wait_seconds;
  }
}

}  // namespace perfcloud::hw
