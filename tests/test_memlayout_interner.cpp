// Memory-layout primitives: app-id interning and the dense slot store the
// hot path is keyed by (DESIGN.md §5i).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "exp/cluster.hpp"
#include "sim/interner.hpp"
#include "sim/slot_store.hpp"
#include "virt/hypervisor.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::sim {
namespace {

TEST(Interner, DuplicateRegistrationReturnsSameId) {
  Interner in;
  const Interner::Id a = in.intern("hadoop");
  const Interner::Id b = in.intern("spark");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("hadoop"), a);
  EXPECT_EQ(in.intern("spark"), b);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.name(a), "hadoop");
  EXPECT_EQ(in.name(b), "spark");
}

TEST(Interner, IdsAreDenseInRegistrationOrder) {
  Interner in;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(in.intern("app-" + std::to_string(i)), static_cast<Interner::Id>(i));
  }
}

TEST(Interner, UnknownLookupReturnsInvalid) {
  Interner in;
  (void)in.intern("known");
  EXPECT_EQ(in.lookup("unknown"), Interner::kInvalid);
  EXPECT_EQ(in.lookup(""), Interner::kInvalid);
  EXPECT_EQ(in.lookup("known"), 0);
  // Heterogeneous lookup: a string_view into a larger buffer resolves too.
  const std::string buf = "known-with-suffix";
  EXPECT_EQ(in.lookup(std::string_view(buf).substr(0, 5)), 0);
}

TEST(Interner, NameOfInvalidIdThrows) {
  Interner in;
  EXPECT_THROW((void)in.name(Interner::kInvalid), std::out_of_range);
  EXPECT_THROW((void)in.name(7), std::out_of_range);
}

TEST(SlotMap, TryEmplaceFindEraseRoundTrip) {
  SlotMap<std::string> m;
  EXPECT_TRUE(m.empty());
  const auto [v, inserted] = m.try_emplace(5, "five");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, "five");
  // Existing key: same value back, nothing constructed.
  const auto [v2, inserted2] = m.try_emplace(5, "other");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, "five");
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.contains(5));
  EXPECT_FALSE(m.contains(4));
  EXPECT_EQ(m.find(4), nullptr);
  EXPECT_EQ(m.at(5), "five");
  EXPECT_THROW((void)m.at(4), std::out_of_range);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
}

TEST(SlotMap, NegativeKeyThrows) {
  SlotMap<int> m;
  EXPECT_THROW(m.try_emplace(-1, 0), std::invalid_argument);
  EXPECT_FALSE(m.contains(-1));
  EXPECT_EQ(m.find(-1), nullptr);
}

TEST(SlotMap, KeyOrderedScanMatchesSortedKeys) {
  SlotMap<int> m;
  for (int key : {9, 2, 40, 0, 17}) m.try_emplace(key, key * 10);
  std::vector<int> walked;
  for (int k = m.first_key(); k != SlotMap<int>::kEnd; k = m.next_key(k)) {
    walked.push_back(k);
    EXPECT_EQ(m.at(k), k * 10);
  }
  EXPECT_EQ(walked, (std::vector<int>{0, 2, 9, 17, 40}));
}

TEST(SlotMap, EraseDuringScanOfCurrentKey) {
  SlotMap<int> m;
  for (int key : {1, 3, 5, 7}) m.try_emplace(key, key);
  std::vector<int> walked;
  for (int k = m.first_key(); k != SlotMap<int>::kEnd;) {
    const int next = m.next_key(k);
    walked.push_back(k);
    if (k == 3 || k == 7) m.erase(k);
    k = next;
  }
  EXPECT_EQ(walked, (std::vector<int>{1, 3, 5, 7}));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(1));
  EXPECT_FALSE(m.contains(3));
}

TEST(SlotMap, RecycledSlotGetsFreshValueNeverStaleState) {
  // The fault path depends on this: an evicted VM's slot may be reused by a
  // later VM under a different key, and the new key must never observe the
  // old value.
  SlotMap<std::vector<int>> m;
  auto [old_vm, ins] = m.try_emplace(3);
  old_vm->assign({1, 2, 3});  // "accumulated state" of the dying VM
  ASSERT_TRUE(ins);
  m.erase(3);
  // The next insertion recycles slot 0 (LIFO free list)...
  const auto [fresh, inserted] = m.try_emplace(11);
  ASSERT_TRUE(inserted);
  // ...but the value is freshly constructed, not the corpse.
  EXPECT_TRUE(fresh->empty());
  EXPECT_FALSE(m.contains(3));
}

TEST(SlotMap, ValuesSurviveGrowthByKeyLookup) {
  SlotMap<double> m;
  for (int k = 0; k < 200; ++k) m.try_emplace(k, k * 0.5);
  for (int k = 0; k < 200; ++k) EXPECT_EQ(m.at(k), k * 0.5) << k;
  EXPECT_EQ(m.size(), 200u);
}

// End to end through the cloud manager: VM ids are cloud-wide monotonic and
// never reused, so after a host crash (all resident VMs destroyed) the
// replacement VMs observe fresh monitor state — nothing resurrects.
TEST(SlotReuse, CrashedVmStateDoesNotResurrectUnderNewIds) {
  exp::ClusterParams p;
  p.hosts = 2;
  p.workers = 4;
  p.worker_host_limit = 1;  // keep the framework off the crash victim host
  p.seed = 91;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-1", wl::FioRandomRead::Params{.start_s = 2.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});
  exp::run_for(c, 100.0);

  core::NodeManager& nm = c.node_manager(1);
  const std::size_t stale_samples = nm.monitor().io_throughput_series(fio).size();
  ASSERT_GT(stale_samples, 3u);

  // Crash the host (destroys the fio VM) and run the HostCrash cleanup the
  // fault injector performs, then bring the host back empty.
  (void)c.cloud->crash_host("host-1");
  nm.forget_vm(fio);
  c.cloud->restore_host("host-1");
  exp::run_for(c, 50.0);

  // A new antagonist boots; its id is strictly larger — ids never recycle.
  const int fio2 = exp::add_fio(c, "host-1", wl::FioRandomRead::Params{.start_s = 1.0});
  EXPECT_GT(fio2, fio);
  exp::run_for(c, 50.0);

  // The new VM accumulated only its own samples; the dead VM's series is
  // frozen at its crash-time length (lingering, unreachable, harmless).
  const sim::TimeSeries& fresh = nm.monitor().io_throughput_series(fio2);
  const sim::TimeSeries& stale = nm.monitor().io_throughput_series(fio);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(stale.size(), stale_samples);
  EXPECT_LT(fresh.size(), stale_samples + 1);
}

// The migration handoff through the monitor alone: after forget_vm, a VM
// sampled again — the same id coming back, or a new id landing in the freed
// slot — starts exactly like a never-seen VM: its first sample only primes
// the counter baseline, its EWMAs seed from the raw interval rate, and the
// gated metrics (iowait ratio, CPI) report only from their second update.
TEST(SlotReuse, ForgottenVmReturnsToMonitorWithFreshState) {
  hw::ServerConfig server;
  server.disk.wait_jitter_sigma = 0.0;
  server.memory.cpi_jitter_sigma = 0.0;
  virt::Hypervisor hv(server, Rng(7));
  const core::PerfCloudConfig cfg;
  ASSERT_EQ(cfg.sample_interval_s, 5.0);
  core::PerformanceMonitor mon(hv, cfg);
  double t = 0.0;
  const auto interval = [&] {
    for (int i = 1; i <= 50; ++i) hv.tick(SimTime(t + i * 0.1), 0.1);
    t += 5.0;
    mon.sample(SimTime(t));
  };
  const auto boot_fio = [&](int id) -> virt::Vm& {
    virt::Vm& vm = hv.boot(virt::VmConfig{.id = id, .vcpus = 2});
    vm.attach(std::make_unique<wl::FioRandomRead>(wl::FioRandomRead::Params{}));
    return vm;
  };
  // Nothing of `id` is visible: no sample, no series, zero baselines.
  const auto expect_blank = [&](int id) {
    EXPECT_EQ(mon.latest(id), nullptr);
    EXPECT_TRUE(mon.io_throughput_series(id).empty());
    EXPECT_TRUE(mon.llc_miss_series(id).empty());
    EXPECT_EQ(mon.observed_io_bps(id), 0.0);
    EXPECT_EQ(mon.observed_cpu_cores(id), 0.0);
    EXPECT_EQ(mon.observed_llc_rate(id), 0.0);
  };
  // The sample after the priming one: every EWMA holds exactly the raw
  // interval rate (a kept smoother would blend in the old value; fio's duty
  // cycle makes the rates differ between intervals), one series point, and
  // no iowait/CPI yet.
  const auto expect_first_reading = [&](const virt::Vm& vm) {
    const virt::CgroupStats before = vm.cgroup().stats();
    interval();
    const virt::CgroupStats after = vm.cgroup().stats();
    const int id = vm.id();
    const core::VmSample* s = mon.latest(id);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->iowait_ratio_ms.has_value());
    EXPECT_FALSE(s->cpi.has_value());
    EXPECT_DOUBLE_EQ(mon.observed_io_bps(id),
                     (after.io_service_bytes - before.io_service_bytes) / 5.0);
    EXPECT_DOUBLE_EQ(mon.observed_cpu_cores(id), (after.cpu_time_s - before.cpu_time_s) / 5.0);
    EXPECT_DOUBLE_EQ(mon.observed_llc_rate(id), (after.llc_misses - before.llc_misses) / 5.0);
    EXPECT_EQ(mon.io_throughput_series(id).size(), 1u);
    EXPECT_EQ(mon.llc_miss_series(id).size(), 1u);
    interval();
    s = mon.latest(id);
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->iowait_ratio_ms.has_value());
    EXPECT_TRUE(s->cpi.has_value());
  };

  boot_fio(1);
  mon.sample(SimTime(t));
  for (int i = 0; i < 6; ++i) interval();
  ASSERT_NE(mon.latest(1), nullptr);
  ASSERT_TRUE(mon.latest(1)->iowait_ratio_ms.has_value());
  ASSERT_TRUE(mon.latest(1)->cpi.has_value());
  ASSERT_EQ(mon.io_throughput_series(1).size(), 6u);
  ASSERT_GT(mon.observed_io_bps(1), 0.0);

  // VM 1 departs and comes back one interval later.
  std::unique_ptr<virt::Vm> away = hv.evict(1);
  mon.forget_vm(1);
  expect_blank(1);
  interval();
  virt::Vm& back = hv.adopt(std::move(away));
  interval();  // re-primes only
  expect_blank(1);
  expect_first_reading(back);

  // VM 1 leaves for good; VM 2 takes the freed slot and sees none of it.
  away = hv.evict(1);
  mon.forget_vm(1);
  const virt::Vm& other = boot_fio(2);
  interval();
  expect_blank(2);
  expect_blank(1);
  expect_first_reading(other);
  expect_blank(1);
}

}  // namespace
}  // namespace perfcloud::sim
