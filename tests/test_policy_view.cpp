// ClusterView aggregation and destination-scoring unit tests (DESIGN.md §5k):
// the policy's per-host usage vectors, cap folding, registry-version-keyed
// rebuilds, and the pluggable scorers' preferences.
#include <gtest/gtest.h>

#include <vector>

#include "exp/cluster.hpp"
#include "policy/cluster_view.hpp"
#include "policy/migration_policy.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::policy {
namespace {

std::vector<core::NodeManager*> managers(exp::Cluster& c) {
  std::vector<core::NodeManager*> nms;
  for (const auto& nm : c.node_managers) nms.push_back(nm.get());
  return nms;
}

TEST(ClusterView, AggregatesShapePlacementAndUsage) {
  exp::ClusterParams p;
  p.hosts = 3;
  p.workers = 4;
  p.seed = 51;
  p.placement = exp::Placement::kPacked;  // all workers on host-0
  exp::Cluster c = exp::make_cluster(p);
  const int dd = exp::add_dd_writer(
      c, "host-1", wl::DdSequentialWriter::Params{.total_bytes = 1.0e12});
  const int cpu = exp::add_sysbench_cpu(
      c, "host-2", wl::SysbenchCpu::Params{.threads = 8, .total_instructions = 1.0e14});
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/false);
  c.framework->submit(wl::make_terasort(12, 12));
  exp::run_for(c, 120.0);

  ClusterView view(*c.cloud, managers(c));
  view.refresh(c.engine->now());

  ASSERT_EQ(view.host_count(), 3u);
  EXPECT_EQ(view.index_of("host-1"), 1u);
  EXPECT_EQ(view.index_of("nope"), ClusterView::npos);

  const HostView& h0 = view.host(0);
  EXPECT_TRUE(h0.up);
  EXPECT_EQ(h0.cores, p.server.cpu.cores);
  EXPECT_EQ(h0.disk_bw, p.server.disk.bw_capacity);
  ASSERT_EQ(h0.vms.size(), 4u);
  for (std::size_t i = 1; i < h0.vms.size(); ++i) {
    EXPECT_LT(h0.vms[i - 1].vm_id, h0.vms[i].vm_id);  // canonical id order
  }
  // Workers are the protected app; their usage folded into the aggregates.
  EXPECT_GT(h0.cpu_cores_used, 0.0);
  for (const VmUsage& u : h0.vms) {
    EXPECT_EQ(u.priority, virt::Priority::kHigh);
    EXPECT_EQ(u.app, c.cloud->app_interner().lookup(p.app_id));
    EXPECT_LT(u.io_cap, 0.0);  // monitoring-only: nothing capped
  }

  // Antagonist hosts: the dd writer shows up as disk throughput, the
  // sysbench as CPU cores; neither host has a protected app, so their
  // deviation maxima stay at the "no samples" sentinel.
  const VmUsage* dd_u = view.find_vm(1, dd);
  ASSERT_NE(dd_u, nullptr);
  EXPECT_GT(dd_u->io_bps, 0.0);
  EXPECT_GT(view.host(1).io_bps, 0.0);
  const VmUsage* cpu_u = view.find_vm(2, cpu);
  ASSERT_NE(cpu_u, nullptr);
  EXPECT_GT(cpu_u->cpu_cores, 0.5);
  EXPECT_LT(view.host(1).max_io_dev, 0.0);
  EXPECT_LT(view.host(2).max_cpi_dev, 0.0);
  EXPECT_EQ(view.find_vm(0, dd), nullptr);
}

TEST(ClusterView, RebuildFollowsRegistryChanges) {
  exp::ClusterParams p;
  p.hosts = 2;
  p.workers = 2;
  p.seed = 52;
  p.placement = exp::Placement::kPacked;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/false);
  exp::run_for(c, 30.0);

  ClusterView view(*c.cloud, managers(c));
  view.refresh(c.engine->now());
  EXPECT_NE(view.find_vm(0, fio), nullptr);
  EXPECT_EQ(view.host(1).vms.size(), 0u);

  c.cloud->migrate_vm(fio, "host-1");
  // Same timestamp, changed registry: the version key forces the rebuild.
  view.refresh(c.engine->now());
  EXPECT_EQ(view.find_vm(0, fio), nullptr);
  ASSERT_NE(view.find_vm(1, fio), nullptr);

  exp::run_for(c, 30.0);
  view.refresh(c.engine->now());
  EXPECT_GT(view.find_vm(1, fio)->io_bps, 0.0);

  // A crashed host folds as down with its residents gone.
  c.cloud->crash_host("host-1");
  view.refresh(c.engine->now());
  EXPECT_FALSE(view.host(1).up);
  EXPECT_EQ(view.host(1).vms.size(), 0u);
  EXPECT_TRUE(view.host(0).up);
}

TEST(Scoring, ComplementaryPrefersOrthogonalHostFirstFitPrefersLowIndex) {
  // host-1 is saturated-disk-busy (dd writer), host-2 CPU-busy (sysbench),
  // host-3 idle. The antagonists are stark — a saturating large-block fio
  // vs a 500 MB/s dd — so the disk axis dominates every other overlap term:
  // the fio from host-0 must land on host-2, not host-1, under
  // complementary scoring; first-fit only looks at the index.
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 2;
  p.seed = 53;
  p.placement = exp::Placement::kPacked;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(
      c, "host-0",
      wl::FioRandomRead::Params{
          .issue_iops = 4000.0, .block_size = 262144.0, .duration_s = 10000.0});
  exp::add_dd_writer(c, "host-1",
                     wl::DdSequentialWriter::Params{.total_bytes = 1.0e12,
                                                    .target_rate = 500.0e6});
  exp::add_sysbench_cpu(c, "host-2",
                        wl::SysbenchCpu::Params{.threads = 8, .total_instructions = 1.0e14});
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/false);
  c.framework->submit(wl::make_terasort(8, 8));
  exp::run_for(c, 150.0);

  const virt::VmConfig& shape = c.vm(fio).config();

  PolicyParams comp;
  comp.scoring = Scoring::kComplementary;
  MigrationPolicy complementary(*c.cloud, managers(c), comp);
  EXPECT_GT(complementary.score_destination(shape, "host-0", "host-2"),
            complementary.score_destination(shape, "host-0", "host-1"));

  PolicyParams ff;
  ff.scoring = Scoring::kFirstFit;
  MigrationPolicy first_fit(*c.cloud, managers(c), ff);
  EXPECT_GT(first_fit.score_destination(shape, "host-0", "host-1"),
            first_fit.score_destination(shape, "host-0", "host-2"));
}

TEST(MigrationPolicy, ValidatesParameters) {
  exp::ClusterParams p;
  p.hosts = 1;
  p.workers = 1;
  p.seed = 54;
  exp::Cluster c = exp::make_cluster(p);
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/false);

  PolicyParams bad;
  bad.floor_windows = 0;
  EXPECT_THROW(MigrationPolicy(*c.cloud, managers(c), bad), std::invalid_argument);
  bad = PolicyParams{};
  bad.max_in_flight = 0;
  EXPECT_THROW(MigrationPolicy(*c.cloud, managers(c), bad), std::invalid_argument);
  bad = PolicyParams{};
  bad.dwell_min_s = -1.0;
  EXPECT_THROW(MigrationPolicy(*c.cloud, managers(c), bad), std::invalid_argument);
  EXPECT_THROW(MigrationPolicy(*c.cloud, {}, PolicyParams{}), std::invalid_argument);

  // A policy interval that is not a whole multiple of the control interval
  // cannot share the host pipeline.
  PolicyParams off;
  off.interval_s = 7.5;  // sample_interval_s is 5.0
  MigrationPolicy policy(*c.cloud, managers(c), off);
  EXPECT_THROW(policy.start(), std::invalid_argument);

  PolicyParams ok;
  ok.interval_s = 10.0;
  MigrationPolicy fine(*c.cloud, managers(c), ok);
  fine.start();
  EXPECT_THROW(fine.start(), std::logic_error);
}

}  // namespace
}  // namespace perfcloud::policy
