#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "baselines/aimd.hpp"
#include "baselines/dolly.hpp"
#include "baselines/late.hpp"
#include "baselines/scheme.hpp"
#include "baselines/static_cap.hpp"
#include "core/cubic.hpp"
#include "exp/cluster.hpp"
#include "sim/rng.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/job.hpp"

namespace perfcloud::base {
namespace {

TEST(Scheme, NamesAreUnique) {
  const Scheme all[] = {Scheme::kDefault, Scheme::kStatic,  Scheme::kLate,     Scheme::kDolly2,
                        Scheme::kDolly4,  Scheme::kDolly6, Scheme::kPerfCloud};
  std::vector<std::string> names;
  for (Scheme s : all) names.push_back(to_string(s));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Scheme, DollyCloneCounts) {
  EXPECT_EQ(dolly_clones(Scheme::kDolly2), 2);
  EXPECT_EQ(dolly_clones(Scheme::kDolly4), 4);
  EXPECT_EQ(dolly_clones(Scheme::kDolly6), 6);
  EXPECT_EQ(dolly_clones(Scheme::kLate), 1);
}

TEST(DollySubmitter, SubmitsRequestedClones) {
  exp::ClusterParams p;
  p.workers = 6;
  exp::Cluster c = exp::make_cluster(p);
  DollySubmitter dolly(*c.framework, 4);
  EXPECT_EQ(dolly.clones(), 4);
  const auto ids = dolly.submit(wl::make_wordcount(3, 1));
  EXPECT_EQ(ids.size(), 4u);
  exp::run_until_done(c, 600.0);
  int completed = 0;
  for (const wl::JobId id : ids) {
    completed += c.framework->find_job(id)->completed() ? 1 : 0;
  }
  EXPECT_EQ(completed, 1);
}

TEST(StaticCaps, AppliedImmediately) {
  exp::ClusterParams p;
  p.workers = 2;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-0");
  apply_static_caps(*c.cloud, "host-0",
                    {StaticCap{.vm_id = fio, .io_bytes_per_sec = 1.0e5, .cpu_cores = 0.5}});
  EXPECT_DOUBLE_EQ(c.vm(fio).cgroup().blkio_throttle_bps(), 1.0e5);
  EXPECT_DOUBLE_EQ(c.vm(fio).cgroup().cpu_quota_cores(), 0.5);
}

TEST(StaticCaps, NoCapDimensionsUntouched) {
  exp::ClusterParams p;
  p.workers = 2;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-0");
  apply_static_caps(*c.cloud, "host-0", {StaticCap{.vm_id = fio, .io_bytes_per_sec = 5.0e5}});
  EXPECT_DOUBLE_EQ(c.vm(fio).cgroup().blkio_throttle_bps(), 5.0e5);
  EXPECT_EQ(c.vm(fio).cgroup().cpu_quota_cores(), hw::kNoCap);
}

// --- LATE ---

exp::Cluster straggler_cluster(std::uint64_t seed) {
  exp::ClusterParams p;
  p.workers = 6;
  p.seed = seed;
  exp::Cluster c = exp::make_cluster(p);
  // An unthrottled fio on the host makes tasks on it stragglers... but with
  // one host everything is slow; instead, a STREAM VM with a strong placement
  // asymmetry slows some VMs more than others, creating stragglers.
  exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16});
  return c;
}

TEST(Late, SpeculatesOnSlowTasks) {
  exp::Cluster c = straggler_cluster(3);
  const int total_slots = 12;
  c.framework->set_speculator(std::make_unique<LateSpeculator>(
      LateSpeculator::Params{.speculative_cap = 0.25, .min_runtime_s = 5.0}, total_slots));
  const wl::JobId id = c.framework->submit(wl::make_spark_logreg(10, 5));
  exp::run_until_done(c, 1200.0);
  const wl::Job* job = c.framework->find_job(id);
  ASSERT_TRUE(job->completed());
  int speculative = 0;
  for (std::size_t s = 0; s < job->stage_count(); ++s) {
    for (const wl::TaskState& t : job->stage(s)) {
      for (const wl::AttemptRecord& a : t.attempts) speculative += a.speculative ? 1 : 0;
    }
  }
  EXPECT_GT(speculative, 0);
  EXPECT_LT(c.framework->utilization_efficiency(), 1.0);
}

TEST(Late, RespectsSpeculativeCap) {
  exp::Cluster c = straggler_cluster(5);
  // Cap of 0: LATE must never speculate.
  c.framework->set_speculator(std::make_unique<LateSpeculator>(
      LateSpeculator::Params{.speculative_cap = 0.0, .min_runtime_s = 1.0}, 12));
  const wl::JobId id = c.framework->submit(wl::make_terasort(8, 8));
  exp::run_until_done(c, 1200.0);
  const wl::Job* job = c.framework->find_job(id);
  for (std::size_t s = 0; s < job->stage_count(); ++s) {
    for (const wl::TaskState& t : job->stage(s)) {
      for (const wl::AttemptRecord& a : t.attempts) EXPECT_FALSE(a.speculative);
    }
  }
  EXPECT_DOUBLE_EQ(c.framework->utilization_efficiency(), 1.0);
}

TEST(Late, YoungTasksAreNotJudged) {
  LateSpeculator late(LateSpeculator::Params{.min_runtime_s = 1e9}, 12);
  exp::ClusterParams p;
  p.workers = 4;
  exp::Cluster c = exp::make_cluster(p);
  c.framework->submit(wl::make_terasort(4, 2));
  exp::run_for(c, 5.0);
  std::vector<const wl::Job*> jobs;
  for (const auto& j : c.framework->jobs()) jobs.push_back(j.get());
  EXPECT_TRUE(late.pick(jobs, c.engine->now(), 4).empty());
}

TEST(Late, EmptyJobListIsSafe) {
  LateSpeculator late(LateSpeculator::Params{}, 12);
  EXPECT_TRUE(late.pick({}, sim::SimTime(0.0), 4).empty());
}

TEST(Late, ZeroProgressStragglerIsPickedFirst) {
  // A mature attempt with zero progress rate is the clearest straggler there
  // is — completely stalled, unbounded time-to-finish. It must be speculated
  // (and sorted ahead of tasks that still crawl forward), not silently
  // dropped by the est_time_left division.
  wl::TaskSpec ts;
  ts.phases.push_back(wl::PhaseSpec{.kind = wl::PhaseKind::kCompute, .instructions = 1.0e9});
  wl::JobSpec spec;
  spec.name = "stall";
  spec.task_jitter_sigma = 0.0;
  spec.stages.push_back(wl::StageSpec{.name = "s0", .num_tasks = 2, .task = ts});
  sim::Rng rng(1);
  wl::Job job(1, spec, sim::SimTime(0.0), rng);

  auto& tasks = job.stage(0);
  ASSERT_EQ(tasks.size(), 2u);
  for (wl::TaskState& t : tasks) {
    wl::AttemptRecord rec;
    rec.attempt = std::make_unique<wl::TaskAttempt>(t.spec, sim::SimTime(0.0));
    rec.start = sim::SimTime(0.0);
    rec.running = true;
    t.attempts.push_back(std::move(rec));
  }
  // Task 1 crawls forward; task 0 never advances at all.
  tasks[1].attempts[0].attempt->advance(1.0e8, 0.0, 0.0);

  LateSpeculator late(
      LateSpeculator::Params{
          .speculative_cap = 1.0, .slow_task_percentile = 1.0, .min_runtime_s = 1.0},
      4);
  const auto picks = late.pick({&job}, sim::SimTime(100.0), 2);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0].job, 1);
  EXPECT_EQ(picks[0].stage, 0u);
  EXPECT_EQ(picks[0].task, 0u);  // the stalled task sorts first (est = +inf)
  EXPECT_EQ(picks[1].task, 1u);
}

// --- AIMD ablation controller ---

TEST(Aimd, StartsAtBaseline) {
  base::AimdController c({}, 2.0e6);
  EXPECT_DOUBLE_EQ(c.cap(), 1.0);
  EXPECT_DOUBLE_EQ(c.cap_absolute(), 2.0e6);
}

TEST(Aimd, MultiplicativeDecreaseAdditiveIncrease) {
  base::AimdController c(base::AimdController::Params{.beta = 0.8, .alpha = 0.1}, 1.0);
  EXPECT_NEAR(c.step(true), 0.2, 1e-12);
  EXPECT_NEAR(c.step(false), 0.3, 1e-12);
  EXPECT_NEAR(c.step(false), 0.4, 1e-12);
}

TEST(Aimd, BottomsOutAtMinCap) {
  base::AimdController c(base::AimdController::Params{.min_cap_fraction = 0.05}, 1.0);
  for (int i = 0; i < 10; ++i) c.step(true);
  EXPECT_DOUBLE_EQ(c.cap(), 0.05);
}

TEST(Aimd, LiftsAfterEnoughIncrease) {
  base::AimdController c(base::AimdController::Params{.alpha = 0.5, .cap_lift_fraction = 2.0}, 1.0);
  c.step(false);
  EXPECT_FALSE(c.lifted());
  c.step(false);
  EXPECT_TRUE(c.lifted());
}

TEST(Aimd, LinearRecoveryIsSlowerThanCubicProbing) {
  // After a decrease, CUBIC overtakes AIMD's linear ramp well before the
  // lift point — the probing-region advantage the ablation bench measures.
  core::PerfCloudConfig cfg;
  core::CubicController cubic(cfg, 1.0);
  base::AimdController aimd(base::AimdController::Params{}, 1.0);
  cubic.step(true);
  aimd.step(true);
  double cubic_cap = 0.0;
  double aimd_cap = 0.0;
  for (int i = 0; i < 10; ++i) {
    cubic_cap = cubic.step(false);
    aimd_cap = aimd.step(false);
  }
  EXPECT_GT(cubic_cap, aimd_cap);
}

}  // namespace
}  // namespace perfcloud::base
