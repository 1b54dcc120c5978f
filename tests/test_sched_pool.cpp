// ShardPool edge cases: batches smaller than the pool, empty batches, and
// exceptions thrown inside tasks — under both claim disciplines. A
// deadlocked barrier hangs these tests, so completing at all is part of what
// they assert.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/shard_pool.hpp"

namespace perfcloud::sim {
namespace {

constexpr ShardSchedule kBoth[] = {ShardSchedule::kStatic, ShardSchedule::kWorkStealing};

TEST(ShardPool, MoreShardsThanTasksRunsEachTaskExactlyOnce) {
  ShardPool pool(8);
  for (const ShardSchedule sched : kBoth) {
    std::vector<std::atomic<int>> hits(3);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, sched);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << to_string(sched);
  }
}

TEST(ShardPool, ZeroTasksReturnsImmediately) {
  ShardPool pool(4);
  for (const ShardSchedule sched : kBoth) {
    bool ran = false;
    pool.run(0, [&](std::size_t) { ran = true; }, sched);
    EXPECT_FALSE(ran);
  }
  // The pool is still usable after an empty batch.
  std::atomic<int> count{0};
  pool.run(5, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

TEST(ShardPool, LargeBatchCoversEveryIndexOnce) {
  ShardPool pool(4);
  for (const ShardSchedule sched : kBoth) {
    // One slot per index: exactly-once execution shows up as all-ones.
    std::vector<std::atomic<int>> hits(1000);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, sched);
    int total = 0;
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1) << to_string(sched);
      total += h.load();
    }
    EXPECT_EQ(total, 1000);
  }
}

TEST(ShardPool, TaskExceptionPropagatesWithoutDeadlockingTheBarrier) {
  ShardPool pool(4);
  for (const ShardSchedule sched : kBoth) {
    std::atomic<int> survivors{0};
    EXPECT_THROW(pool.run(
                     16,
                     [&](std::size_t i) {
                       if (i == 3) throw std::runtime_error("task 3 failed");
                       survivors.fetch_add(1);
                     },
                     sched),
                 std::runtime_error);
    // The failing batch still completed: every other task ran, and the pool
    // accepts the next batch (a deadlocked barrier would hang right here).
    EXPECT_EQ(survivors.load(), 15) << to_string(sched);
    std::atomic<int> next{0};
    pool.run(8, [&](std::size_t) { next.fetch_add(1); }, sched);
    EXPECT_EQ(next.load(), 8) << to_string(sched);
  }
}

TEST(ShardPool, SingleShardPoolRunsInline) {
  ShardPool pool(1);
  EXPECT_EQ(pool.shards(), 1u);
  std::vector<std::size_t> seen;
  pool.run(4, [&](std::size_t i) { seen.push_back(i); }, ShardSchedule::kStatic);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace perfcloud::sim
