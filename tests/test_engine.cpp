#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace perfcloud::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now().seconds(), 0.0);
}

TEST(Engine, RunsOneShotEvents) {
  Engine e;
  std::vector<double> fired;
  e.at(SimTime(1.0), [&](SimTime t) { fired.push_back(t.seconds()); });
  e.after(2.5, [&](SimTime t) { fired.push_back(t.seconds()); });
  e.run_until(SimTime(10.0));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(e.now().seconds(), 10.0);
}

TEST(Engine, RunUntilStopsBeforeLaterEvents) {
  Engine e;
  int fired = 0;
  e.at(SimTime(5.0), [&](SimTime) { ++fired; });
  e.run_until(SimTime(3.0));
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(e.now().seconds(), 3.0);
  e.run_until(SimTime(6.0));
  EXPECT_EQ(fired, 1);
}

TEST(Engine, PeriodicFiresAtMultiples) {
  Engine e;
  std::vector<double> fired;
  e.every(2.0, [&](SimTime t) { fired.push_back(t.seconds()); }, SimTime(2.0));
  e.run_until(SimTime(7.0));
  EXPECT_EQ(fired, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(Engine, PeriodicWithCustomStart) {
  Engine e;
  std::vector<double> fired;
  e.every(5.0, [&](SimTime t) { fired.push_back(t.seconds()); }, SimTime(1.0));
  e.run_until(SimTime(12.0));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 6.0, 11.0}));
}

TEST(Engine, PeriodicsAtSameTimeFireInRegistrationOrder) {
  Engine e;
  std::vector<int> order;
  e.every(1.0, [&](SimTime) { order.push_back(1); }, SimTime(1.0));
  e.every(1.0, [&](SimTime) { order.push_back(2); }, SimTime(1.0));
  e.run_until(SimTime(2.5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(Engine, PeriodicBeatsOneShotAtSameTimestamp) {
  Engine e;
  std::vector<int> order;
  e.at(SimTime(1.0), [&](SimTime) { order.push_back(2); });
  e.every(1.0, [&](SimTime) { order.push_back(1); }, SimTime(1.0));
  e.run_until(SimTime(1.5));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, InterleavesPeriodicsAndEvents) {
  Engine e;
  std::vector<double> fired;
  e.every(3.0, [&](SimTime t) { fired.push_back(t.seconds()); }, SimTime(3.0));
  e.at(SimTime(4.0), [&](SimTime t) { fired.push_back(t.seconds()); });
  e.run_until(SimTime(7.0));
  EXPECT_EQ(fired, (std::vector<double>{3.0, 4.0, 6.0}));
}

TEST(Engine, RunWhilePredicateStops) {
  Engine e;
  int count = 0;
  e.every(1.0, [&](SimTime) { ++count; }, SimTime(1.0));
  e.run_while([&] { return count < 5; }, SimTime(100.0));
  EXPECT_EQ(count, 5);
  EXPECT_LE(e.now().seconds(), 6.0);
}

TEST(Engine, StopEndsRunEarly) {
  Engine e;
  int count = 0;
  e.every(1.0,
          [&](SimTime) {
            if (++count == 3) e.stop();
          },
          SimTime(1.0));
  e.run_until(SimTime(100.0));
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(e.now().seconds(), 3.0);
  // A later run resumes.
  e.run_until(SimTime(5.0));
  EXPECT_EQ(count, 5);
}

TEST(Engine, CancelScheduledEvent) {
  Engine e;
  int fired = 0;
  const EventHandle h = e.at(SimTime(1.0), [&](SimTime) { ++fired; });
  EXPECT_TRUE(e.cancel(h));
  e.run_until(SimTime(2.0));
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RngIsSeeded) {
  Engine a(7);
  Engine b(7);
  EXPECT_EQ(a.rng()(), b.rng()());
  Engine c(8);
  Engine d(9);
  EXPECT_NE(c.rng()(), d.rng()());
}

TEST(Engine, EventSchedulingFromCallback) {
  Engine e;
  std::vector<double> fired;
  e.at(SimTime(1.0), [&](SimTime) {
    e.after(1.0, [&](SimTime t) { fired.push_back(t.seconds()); });
  });
  e.run_until(SimTime(5.0));
  EXPECT_EQ(fired, (std::vector<double>{2.0}));
}

TEST(Engine, DrainsAndReportsFinalTime) {
  Engine e;
  e.at(SimTime(2.0), [](SimTime) {});
  const SimTime end = e.run_until(SimTime(10.0));
  EXPECT_DOUBLE_EQ(end.seconds(), 10.0);
}

TEST(Engine, AtInThePastThrows) {
  Engine e;
  e.at(SimTime(1.0), [](SimTime) {});
  e.run_until(SimTime(2.0));
  EXPECT_THROW(e.at(SimTime(1.5), [](SimTime) {}), std::invalid_argument);
  e.at(SimTime(2.0), [](SimTime) {});  // exactly now is fine
}

TEST(Engine, AfterNegativeDelayThrows) {
  Engine e;
  EXPECT_THROW(e.after(-0.1, [](SimTime) {}), std::invalid_argument);
  e.after(0.0, [](SimTime) {});  // zero delay is fine
}

TEST(Engine, EveryNonPositivePeriodThrows) {
  Engine e;
  EXPECT_THROW(e.every(0.0, [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(e.every(-1.0, [](SimTime) {}), std::invalid_argument);
}

TEST(Engine, PeriodicRegisteredFromCallbackJoinsSameBatchInOrder) {
  Engine e;
  std::vector<int> order;
  e.every(10.0,
          [&](SimTime) {
            order.push_back(1);
            if (order.size() == 1) {
              // Registered mid-batch with start <= now: fires right after the
              // already-due periodics of this timestamp, by registration index.
              e.every(10.0, [&](SimTime) { order.push_back(2); }, SimTime(0.0));
            }
          },
          SimTime(10.0));
  e.run_until(SimTime(25.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(Engine, ShardedPeriodicRunsTasksThenBarrier) {
  Engine e;
  e.set_shards(1);
  std::vector<int> order;
  ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
  sp.add_task([&](SimTime) { order.push_back(0); });
  sp.add_task([&](SimTime) { order.push_back(1); });
  sp.set_barrier([&](SimTime) { order.push_back(9); });
  EXPECT_EQ(sp.task_count(), 2u);
  e.run_until(SimTime(2.5));
  // With one shard the tasks run inline in index order, then the barrier.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 0, 1, 9}));
}

TEST(Engine, ShardedPeriodicKeepsRegistrationOrderWithPlainPeriodics) {
  Engine e;
  e.set_shards(1);
  std::vector<int> order;
  e.every(1.0, [&](SimTime) { order.push_back(1); }, SimTime(1.0));
  ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
  sp.add_task([&](SimTime) { order.push_back(2); });
  e.every(1.0, [&](SimTime) { order.push_back(3); }, SimTime(1.0));
  e.run_until(SimTime(1.5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ShardedPeriodicParallelMatchesSequential) {
  const auto run = [](unsigned shards, ShardSchedule schedule) {
    Engine e;
    e.set_shards(shards);
    e.set_schedule(schedule);
    // One result slot per task: tasks write disjoint elements, so the
    // parallel sweep is race-free and comparable bit-for-bit. Sixteen tasks
    // at four shards take both the single-task and the chunked work-stealing
    // claims.
    std::vector<double> slots(16, 0.0);
    ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      sp.add_task([&slots, i](SimTime t) {
        slots[i] += t.seconds() * static_cast<double>(i + 1);
      });
    }
    e.run_until(SimTime(40.5));
    return slots;
  };
  const std::vector<double> sequential = run(1, ShardSchedule::kWorkStealing);
  EXPECT_EQ(sequential, run(4, ShardSchedule::kWorkStealing));
  EXPECT_EQ(sequential, run(4, ShardSchedule::kStatic));
}

TEST(Engine, TasksAddedBetweenFiringsJoinTheWorkStealingOrder) {
  for (const unsigned shards : {1u, 4u}) {
    Engine e;
    e.set_shards(shards);
    e.set_schedule(ShardSchedule::kWorkStealing);
    std::vector<double> slots(8, 0.0);
    ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
    for (std::size_t i = 0; i < 4; ++i) {
      sp.add_task([&slots, i](SimTime t) { slots[i] += t.seconds(); });
    }
    e.run_until(SimTime(3.5));  // 3 firings with 4 tasks
    for (std::size_t i = 4; i < 8; ++i) {
      sp.add_task([&slots, i](SimTime t) { slots[i] += t.seconds(); });
    }
    e.run_until(SimTime(6.5));  // 3 more with 8
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(slots[i], 1.0 + 2.0 + 3.0 + 4.0 + 5.0 + 6.0);
    for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(slots[i], 4.0 + 5.0 + 6.0);
  }
}

TEST(Engine, SetShardsZeroThrows) {
  Engine e;
  EXPECT_THROW(e.set_shards(0), std::invalid_argument);
}

TEST(Engine, SetShardsAfterPoolExistsThrows) {
  Engine e;
  e.set_shards(2);
  ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
  sp.add_task([](SimTime) {});
  sp.add_task([](SimTime) {});
  e.run_until(SimTime(1.5));  // first multi-task fire creates the pool
  EXPECT_THROW(e.set_shards(4), std::logic_error);
}

TEST(Engine, ShardTaskExceptionPropagates) {
  for (const unsigned shards : {1u, 4u}) {
    Engine e;
    e.set_shards(shards);
    ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
    sp.add_task([](SimTime) { throw std::runtime_error("shard task failed"); });
    sp.add_task([](SimTime) {});
    EXPECT_THROW(e.run_until(SimTime(2.0)), std::runtime_error);
  }
}

/// The documented dispatch order — (time, registration-index) for periodics,
/// periodics before same-timestamp one-shot events, FIFO among simultaneous
/// events — pinned against a hand-computed golden trace. Any scheduler
/// change that reorders the seed semantics fails here.
TEST(Engine, GoldenTraceDeterminism) {
  const auto run_trace = [] {
    Engine e(123);
    std::vector<std::pair<std::string, double>> trace;
    const auto rec = [&trace](std::string tag) {
      return [&trace, tag = std::move(tag)](SimTime t) { trace.emplace_back(tag, t.seconds()); };
    };
    e.every(2.0, rec("p0/2s"), SimTime(2.0));
    e.every(3.0, rec("p1/3s"), SimTime(0.0));
    e.every(2.0, rec("p2/2s"), SimTime(2.0));
    e.at(SimTime(2.0), rec("e@2"));
    e.at(SimTime(2.0), rec("e@2b"));
    e.at(SimTime(3.0), [&, rec](SimTime t) {
      trace.emplace_back("e@3", t.seconds());
      e.after(1.0, rec("e@3+1"));
      e.every(4.0, rec("p3/4s"), SimTime(4.0));
    });
    const EventHandle doomed = e.at(SimTime(5.0), rec("cancelled"));
    e.at(SimTime(4.0), [&e, doomed](SimTime) { e.cancel(doomed); });
    e.run_until(SimTime(6.5));
    return trace;
  };

  const std::vector<std::pair<std::string, double>> expected = {
      {"p1/3s", 0.0},
      {"p0/2s", 2.0}, {"p2/2s", 2.0}, {"e@2", 2.0}, {"e@2b", 2.0},
      {"p1/3s", 3.0}, {"e@3", 3.0},
      {"p0/2s", 4.0}, {"p2/2s", 4.0}, {"p3/4s", 4.0}, {"e@3+1", 4.0},
      // e@5 was cancelled by the event at t=4; at t=6 all three original
      // periodics are due and fire in registration-index order.
      {"p0/2s", 6.0}, {"p1/3s", 6.0}, {"p2/2s", 6.0},
  };
  const auto a = run_trace();
  EXPECT_EQ(a, expected);
  EXPECT_EQ(run_trace(), a);  // run-to-run determinism
}

}  // namespace
}  // namespace perfcloud::sim
