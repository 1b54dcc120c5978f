#include <gtest/gtest.h>

#include "exp/cluster.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/framework.hpp"

namespace perfcloud::wl {
namespace {

exp::Cluster small_cluster(std::uint64_t seed = 1, int workers = 4) {
  exp::ClusterParams p;
  p.workers = workers;
  p.seed = seed;
  return exp::make_cluster(p);
}

JobSpec tiny_job(int maps = 4, int reduces = 2) {
  TaskSpec t;
  t.phases = {PhaseSpec{PhaseKind::kCompute, 2.0e8, 0.0, 0.0}};
  return JobSpec{"tiny", JobType::kMapReduce,
                 {StageSpec{"map", maps, t}, StageSpec{"reduce", reduces, t}},
                 0.05};
}

TEST(Framework, JobRunsToCompletion) {
  exp::Cluster c = small_cluster();
  const double jct = exp::run_job(c, tiny_job());
  EXPECT_GT(jct, 0.0);
  EXPECT_LT(jct, 120.0);
  EXPECT_TRUE(c.framework->all_done());
}

TEST(Framework, JobsCompleteInSubmissionOrderForEqualWork) {
  exp::Cluster c = small_cluster();
  const JobId a = c.framework->submit(tiny_job());
  const JobId b = c.framework->submit(tiny_job());
  exp::run_until_done(c);
  const Job* ja = c.framework->find_job(a);
  const Job* jb = c.framework->find_job(b);
  ASSERT_NE(ja, nullptr);
  ASSERT_NE(jb, nullptr);
  EXPECT_TRUE(ja->completed());
  EXPECT_TRUE(jb->completed());
  EXPECT_LE(ja->finish_time().seconds(), jb->finish_time().seconds());
}

TEST(Framework, AttemptsSpreadAcrossWorkers) {
  exp::Cluster c = small_cluster(2, 4);
  const JobId id = c.framework->submit(tiny_job(8, 0));
  exp::run_until_done(c);
  const Job* job = c.framework->find_job(id);
  std::vector<int> per_worker(4, 0);
  for (const TaskState& t : job->stage(0)) {
    for (const AttemptRecord& a : t.attempts) {
      per_worker[static_cast<std::size_t>(a.worker_index)]++;
    }
  }
  // 8 tasks over 4 x 2-slot workers: everyone should get exactly 2.
  for (int n : per_worker) EXPECT_EQ(n, 2);
}

TEST(Framework, UtilizationEfficiencyIsOneWithoutKills) {
  exp::Cluster c = small_cluster();
  c.framework->submit(tiny_job());
  exp::run_until_done(c);
  EXPECT_DOUBLE_EQ(c.framework->utilization_efficiency(), 1.0);
}

TEST(Framework, CloneGroupFirstFinisherWins) {
  exp::Cluster c = small_cluster(3, 6);
  const std::vector<JobId> clones = c.framework->submit_cloned(tiny_job(), 3);
  ASSERT_EQ(clones.size(), 3u);
  exp::run_until_done(c);
  int completed = 0;
  int killed = 0;
  for (const JobId id : clones) {
    const Job* j = c.framework->find_job(id);
    completed += j->completed() ? 1 : 0;
    killed += j->killed() ? 1 : 0;
  }
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(killed, 2);
  const int group = c.framework->find_job(clones[0])->clone_group;
  EXPECT_GT(c.framework->group_jct(group), 0.0);
}

TEST(Framework, CloningReducesUtilizationEfficiency) {
  exp::Cluster c = small_cluster(4, 6);
  c.framework->submit_cloned(tiny_job(), 4);
  exp::run_until_done(c);
  EXPECT_LT(c.framework->utilization_efficiency(), 0.9);
}

TEST(Framework, KillJobStopsItsWork) {
  exp::Cluster c = small_cluster();
  JobSpec slow = tiny_job(8, 4);
  for (StageSpec& s : slow.stages) s.task.phases[0].instructions = 5.0e10;  // ~22 s/task
  const JobId id = c.framework->submit(slow);
  exp::run_for(c, 3.0);  // let it start
  c.framework->kill_job(id);
  EXPECT_TRUE(c.framework->find_job(id)->killed());
  EXPECT_TRUE(c.framework->all_done());
  // No attempt is left running.
  const Job* j = c.framework->find_job(id);
  for (std::size_t s = 0; s < j->stage_count(); ++s) {
    for (const TaskState& t : j->stage(s)) {
      EXPECT_EQ(t.running_attempts(), 0);
    }
  }
}

TEST(Framework, KillUnknownOrFinishedIsNoop) {
  exp::Cluster c = small_cluster();
  c.framework->kill_job(999);
  const JobId id = c.framework->submit(tiny_job());
  exp::run_until_done(c);
  c.framework->kill_job(id);
  EXPECT_TRUE(c.framework->find_job(id)->completed());
}

TEST(Framework, FindJobMapsEveryIdAndRejectsOutOfRange) {
  exp::Cluster c = small_cluster();
  const JobId solo = c.framework->submit(tiny_job());
  const std::vector<JobId> clones = c.framework->submit_cloned(tiny_job(), 3);
  const auto& jobs = c.framework->jobs();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(c.framework->find_job(solo), jobs[0].get());
  for (const JobId id : clones) {
    const Job* job = c.framework->find_job(id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->id(), id);
  }
  const auto size = static_cast<JobId>(jobs.size());
  EXPECT_EQ(c.framework->find_job(0), nullptr);
  EXPECT_EQ(c.framework->find_job(-1), nullptr);
  EXPECT_EQ(c.framework->find_job(size + 1), nullptr);
  const ScaleOutFramework& fw = *c.framework;
  EXPECT_EQ(fw.find_job(size + 1), nullptr);
  EXPECT_EQ(fw.find_job(clones.back()), jobs.back().get());
}

TEST(Framework, GroupJctNegativeWhenNothingCompleted) {
  exp::Cluster c = small_cluster();
  EXPECT_LT(c.framework->group_jct(1), 0.0);
}

TEST(Framework, StartTwiceThrows) {
  exp::Cluster c = small_cluster();
  EXPECT_THROW(c.framework->start(1.0), std::logic_error);
}

/// A speculator that duplicates every running task once.
class EagerSpeculator : public Speculator {
 public:
  std::vector<TaskRef> pick(const std::vector<const Job*>& jobs, sim::SimTime,
                            int /*free_slots*/) override {
    std::vector<TaskRef> out;
    for (const Job* j : jobs) {
      if (j->current_stage() >= j->stage_count()) continue;
      const auto& tasks = j->stage(j->current_stage());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].completed || tasks[i].running_attempts() != 1) continue;
        out.push_back(TaskRef{j->id(), j->current_stage(), i});
      }
    }
    return out;
  }
};

TEST(Framework, SpeculationCreatesAndReapsDuplicates) {
  exp::Cluster c = small_cluster(5, 6);
  c.framework->set_speculator(std::make_unique<EagerSpeculator>());
  const JobId id = c.framework->submit(tiny_job(4, 0));
  exp::run_until_done(c);
  const Job* j = c.framework->find_job(id);
  EXPECT_TRUE(j->completed());
  int speculative = 0;
  int killed = 0;
  int winners = 0;
  for (const TaskState& t : j->stage(0)) {
    for (const AttemptRecord& a : t.attempts) {
      speculative += a.speculative ? 1 : 0;
      killed += a.killed ? 1 : 0;
      winners += a.finished_ok ? 1 : 0;
    }
  }
  EXPECT_GT(speculative, 0);
  EXPECT_EQ(winners, 4);       // exactly one winner per task
  EXPECT_EQ(killed, speculative);  // equal work: originals win, copies die
  EXPECT_LT(c.framework->utilization_efficiency(), 1.0);
}

}  // namespace
}  // namespace perfcloud::wl
