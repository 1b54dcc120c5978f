// The zero-steady-state-allocation gate (DESIGN.md §5i).
//
// This binary links the counting operator new/delete (pc_alloc_hook), so a
// code region can be bracketed with alloc_gauge_read() and asserted to have
// performed zero heap allocations. The headline gate: one steady-state
// control quantum of a warmed node manager — monitor sample, detection,
// deviation-signal appends, incremental identification against a live
// suspect, identification bookkeeping — allocates nothing. check.sh runs
// these tests as a release-build gate.
#include <gtest/gtest.h>

#include <string_view>

#include "exp/cluster.hpp"
#include "exp/event_sink.hpp"
#include "sim/alloc_gauge.hpp"
#include "virt/hypervisor.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/worker.hpp"

namespace perfcloud::core {
namespace {

TEST(AllocGate, HookIsLinkedAndCounts) {
  // A gate that reads zeros because the hook was never linked would pass
  // vacuously; prove the counters move before trusting any zero below.
  ASSERT_TRUE(sim::alloc_gauge_linked());
  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  // A direct operator-new call: new-EXPRESSIONS may legally be elided by the
  // optimizer, replaceable-function calls may not.
  void* p = ::operator new(64);
  ::operator delete(p);
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
  EXPECT_GE(after.allocs - before.allocs, 1u);
  EXPECT_GE(after.frees - before.frees, 1u);
  EXPECT_GE(after.bytes - before.bytes, 64u);
}

TEST(AllocGate, CounterBumpSteadyStateIsAllocationFree) {
  // bump_counter takes string_view and the counter map uses a transparent
  // comparator: bumping an existing counter — the every-quantum case — must
  // not build a temporary std::string. The key is far beyond SSO so a
  // hidden temporary would show up as a heap allocation.
  exp::EventSink sink(exp::EventSink::Options{.async = false});
  const auto src = sink.add_event_source("host-x");
  constexpr std::string_view kKey = "a_counter_key_well_beyond_any_sso_buffer";
  sink.bump_counter(src, kKey);  // first bump inserts (allocates; episodic)

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  for (int i = 0; i < 100; ++i) sink.bump_counter(src, kKey);
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
  EXPECT_EQ(after.allocs - before.allocs, 0u);
}

TEST(AllocGate, CounterIdBumpIsAllocationFreeFromTheFirstBump) {
  // Slot counters go one better than the transparent-comparator path: after
  // registration (add_counter, setup-time), bump_counter_id is an indexed
  // add into a flat slot — no hashing, no lookup, and unlike bump_counter
  // not even the FIRST bump allocates. The hot per-quantum counters
  // (control_intervals, identifications, policy_intervals) ride this path.
  exp::EventSink sink(exp::EventSink::Options{.async = false});
  const auto src = sink.add_event_source("host-y");
  const sim::EmitSink::CounterId ctr =
      sink.add_counter(src, "another_counter_key_well_beyond_any_sso_buffer");

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  for (int i = 0; i < 100; ++i) sink.bump_counter_id(ctr);
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
  EXPECT_EQ(after.allocs - before.allocs, 0u);
}

TEST(AllocGate, SteadyStateQuantumPerformsZeroHeapAllocations) {
  ASSERT_TRUE(sim::alloc_gauge_linked());

  // A realistic host: six Hadoop workers under terasort plus a long-lived
  // fio antagonist, monitored (not actuated — controller episodes are
  // allowed to allocate; the steady-state contract covers the monitoring/
  // identification pipeline that runs every single interval forever).
  exp::ClusterParams p;
  p.workers = 6;
  p.seed = 41;
  p.shards = 1;  // measured region runs single-threaded, counters exact
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 12.0});
  PerfCloudConfig cfg;
  // Bound the suspect-side monitor rings (>= correlation window) so a
  // steady-state append recycles ring slots instead of growing a vector.
  cfg.monitor_series_capacity = 32;
  exp::enable_perfcloud(c, cfg, /*control=*/false);
  c.framework->submit(wl::make_terasort(24, 24));

  // Warm the cluster: series past their growth boundaries, EWMAs primed,
  // pair states built, identification episodes (map inserts) done.
  exp::run_for(c, 200.0);
  NodeManager& nm = c.node_manager(0);
  ASSERT_GT(nm.io_signal("hadoop").size(), 20u);
  ASSERT_FALSE(nm.monitor().io_throughput_series(fio).empty());

  // Drive further control intervals by hand (the engine is idle, so this
  // thread owns all node-manager state). Two warm-up steps let the node
  // manager's retained scratch vectors reach their working capacity before
  // the bracket closes around the measured quanta.
  sim::SimTime now = c.engine->now();
  for (int i = 0; i < 2; ++i) {
    now += 5.0;
    nm.local_step(now);
  }

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  constexpr int kQuanta = 8;
  for (int i = 0; i < kQuanta; ++i) {
    now += 5.0;
    nm.local_step(now);
  }
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();

  EXPECT_EQ(after.allocs - before.allocs, 0u)
      << "steady-state quantum allocated: " << (after.allocs - before.allocs) << " allocations, "
      << (after.bytes - before.bytes) << " bytes over " << kQuanta << " quanta";
  EXPECT_EQ(after.frees - before.frees, 0u);
}

TEST(AllocGate, UnresolvableCollisionQuantumIsAllocationFree) {
  // Two high-priority applications stuck on a single-host cloud: the
  // escalation has nowhere to move anything. Without the no-op version gate
  // the node manager would re-run the whole §IV-D scan — which builds its
  // grouping map on the heap — every quantum forever; with it, the scan runs
  // once, records the registry version, and the warmed steady state is
  // allocation-free even with escalation enabled.
  ASSERT_TRUE(sim::alloc_gauge_linked());

  exp::ClusterParams p;
  p.hosts = 1;
  p.workers = 2;
  p.seed = 43;
  p.shards = 1;
  exp::Cluster c = exp::make_cluster(p);
  virt::VmConfig other;
  other.priority = virt::Priority::kHigh;
  other.app_id = "other-app";
  c.cloud->boot_vm("host-0", other);
  // Keep the host busy so every quantum takes the full pipeline (a
  // quiescent host would skip escalation anyway and prove nothing).
  exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0});

  PerfCloudConfig cfg;
  cfg.escalate_app_collisions = true;
  cfg.monitor_series_capacity = 32;
  exp::enable_perfcloud(c, cfg, /*control=*/false);
  exp::run_for(c, 100.0);

  NodeManager& nm = c.node_manager(0);
  sim::SimTime now = c.engine->now();
  for (int i = 0; i < 2; ++i) {
    now += 5.0;
    nm.control_step(now);
  }

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  constexpr int kQuanta = 8;
  for (int i = 0; i < kQuanta; ++i) {
    now += 5.0;
    nm.control_step(now);
  }
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();

  EXPECT_EQ(after.allocs - before.allocs, 0u)
      << "escalation-armed steady state allocated: " << (after.allocs - before.allocs)
      << " allocations over " << kQuanta << " quanta";
}

TEST(AllocGate, WarmedBusyHostTickPerformsZeroHeapAllocations) {
  // The hw arbitration under every busy host tick writes into retained
  // per-host scratch (DESIGN.md §5i). A 1-socket host runs every tenant
  // through one memory model; a 2-socket host partitions them per socket.
  ASSERT_TRUE(sim::alloc_gauge_linked());
  for (const int sockets : {1, 2}) {
    SCOPED_TRACE(sockets == 1 ? "1-socket host" : "2-socket host");
    exp::ClusterParams p;
    p.workers = 6;
    p.seed = 47;
    p.shards = 1;
    p.server.sockets = sockets;
    exp::Cluster c = exp::make_cluster(p);
    exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0});
    exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.duration_s = 10000.0});
    c.framework->submit(wl::make_terasort(24, 24));
    exp::run_for(c, 30.0);

    // The host must be busy: scale-out workers mid-task next to the
    // antagonists, so each tick takes the full arbitration path.
    virt::Hypervisor& hv = c.cloud->host("host-0");
    sim::SimTime now = c.engine->now();
    ASSERT_FALSE(hv.is_quiescent(now));
    int running = 0;
    for (const auto& vm : hv.vms()) {
      if (const auto* w = dynamic_cast<const wl::ScaleOutWorker*>(vm->guest())) {
        running += static_cast<int>(w->attempts().size());
      }
    }
    ASSERT_GT(running, 0);

    // Tick by hand (the engine is idle, so this thread owns the host). A
    // few warm-up ticks first, then the measured ones.
    const double dt = p.tick_dt;
    for (int i = 0; i < 5; ++i) {
      now += dt;
      hv.tick(now, dt);
    }
    const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
    constexpr int kTicks = 40;
    for (int i = 0; i < kTicks; ++i) {
      now += dt;
      hv.tick(now, dt);
    }
    const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
    EXPECT_EQ(after.allocs - before.allocs, 0u)
        << "busy host tick allocated: " << (after.allocs - before.allocs) << " allocations, "
        << (after.bytes - before.bytes) << " bytes over " << kTicks << " ticks";
  }
}

}  // namespace
}  // namespace perfcloud::core
