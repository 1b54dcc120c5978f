// Bit-identity pins for the hw models' retained scratch (DESIGN.md §5i).
//
// The hw models write into caller spans and keep their temporaries as
// member vectors that live across ticks. Reuse must never show in the
// output: a scripted tenant mix run through a 1-socket and a 2-socket
// server must produce grants whose FNV-1a hash matches the value the
// fresh-vector-per-call implementation produced (the pinned constants).
// The script shrinks and regrows the tenant set and changes dt midway, so
// stale scratch entries would perturb the hash.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "hw/allocation.hpp"
#include "hw/server.hpp"
#include "hw_grants.hpp"
#include "sim/rng.hpp"

namespace perfcloud::hw {
namespace {

class Fnv1a {
 public:
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (bits >> (8 * b)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Tenants resident at tick t: 7, then 3 (ticks 60-119), then 9.
std::size_t tenants_at(int t) {
  if (t < 60) return 7;
  if (t < 120) return 3;
  return 9;
}

/// Slot-dependent tenant kind plus per-tick random intensity. The mix
/// covers CPU caps, blkio byte and IOPS throttles, deep-queue streams
/// (io_weight > 1) and NUMA tags on both sockets plus one out of range.
TenantDemand scripted_demand(std::size_t slot, double dt, sim::Rng& rng) {
  TenantDemand d;
  d.cpu_core_seconds = rng.uniform(0.0, 12.0) * dt;
  d.cpu_weight = slot % 3 == 0 ? 2.0 : 1.0;
  if (slot % 4 == 1) d.cpu_cap_cores = 1.5;
  d.io_ops = rng.uniform(0.0, 250.0) * dt;
  d.io_bytes = d.io_ops * rng.uniform(4096.0, 512.0 * 1024);
  if (slot % 3 == 2) d.io_weight = 4.0;
  if (slot % 4 == 2) d.io_cap_bytes_per_sec = 8.0e6;
  if (slot % 5 == 3) d.io_cap_iops = 40.0;
  d.llc_footprint = rng.uniform(0.0, 120.0e6);
  d.mem_bw_per_cpu_sec = rng.uniform(0.0, 9.0e9);
  d.cpi_base = 0.8 + 0.1 * static_cast<double>(slot % 5);
  d.mem_sensitivity = rng.uniform(0.2, 2.0);
  d.numa_node = slot == 5 ? 3 : static_cast<int>(slot % 2);
  return d;
}

std::uint64_t scripted_grant_hash(int sockets) {
  ServerConfig cfg;
  cfg.sockets = sockets;
  Server server(cfg, sim::Rng(2024));
  sim::Rng rng(77);
  Fnv1a h;
  std::vector<TenantDemand> demands;
  std::vector<TenantGrant> grants;
  for (int t = 0; t < 200; ++t) {
    const double dt = t < 100 ? 0.1 : 0.25;
    demands.clear();
    for (std::size_t i = 0; i < tenants_at(t); ++i) demands.push_back(scripted_demand(i, dt, rng));
    grants.resize(demands.size());
    server.arbitrate(dt, demands, grants);
    for (const TenantGrant& g : grants) {
      for (const double v : {g.cpu_core_seconds, g.cycles, g.instructions, g.cpi, g.llc_misses,
                             g.io_ops, g.io_bytes, g.io_wait_seconds, g.mem_bw_bytes}) {
        h.add(v);
      }
    }
    h.add(server.last_disk_utilization());
    h.add(server.last_bw_utilization());
  }
  return h.value();
}

TEST(HwScratch, OneSocketGrantsArePinned) {
  EXPECT_EQ(scripted_grant_hash(1), 0x14954f67e0998631ULL);
}

TEST(HwScratch, TwoSocketGrantsArePinned) {
  EXPECT_EQ(scripted_grant_hash(2), 0x2c168f656a3e41aeULL);
}

TEST(HwScratch, ReusedFairShareScratchMatchesFreshScratch) {
  // One scratch carried through 8, 3, 0 and 8 claims: every call must be
  // bitwise equal to a call with brand-new scratch, so nothing left over
  // from a larger (or an empty) previous call can leak into the result.
  sim::Rng rng(5);
  FairShareScratch reused;
  for (const std::size_t n : {8U, 3U, 0U, 8U}) {
    std::vector<Claim> claims(n);
    for (Claim& c : claims) {
      c = Claim{.demand = rng.uniform(0.0, 10.0),
                .weight = rng.uniform(0.5, 4.0),
                .cap = rng.bernoulli(0.3) ? rng.uniform(0.0, 5.0) : kNoCap};
    }
    constexpr double kCapacity = 12.0;
    std::vector<double> got(n, -1.0);
    weighted_fair_allocate(kCapacity, claims, got, reused);
    const std::vector<double> fresh = fair_allocate(kCapacity, claims);
    ASSERT_EQ(got.size(), fresh.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(fresh[i]))
          << "claims=" << n << " slot " << i;
    }
  }
}

}  // namespace
}  // namespace perfcloud::hw
