#include "sim/engine.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace perfcloud::sim {

namespace {

/// Shard counts above this are certainly a typo, not a machine.
constexpr unsigned kMaxShards = 4096;

}  // namespace

Engine::Engine(std::uint64_t seed, TimeQueueKind timeq)
    : timeq_(timeq),
      queue_(timeq),
      shards_(shards_from_env()),
      schedule_(schedule_from_env()),
      rng_(seed) {}

unsigned Engine::shards_from_env() {
  const char* env = std::getenv("PERFCLOUD_SHARDS");
  if (env == nullptr) return 1;
  const std::string s(env);
  bool digits_only = !s.empty();
  for (const char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) digits_only = false;
  }
  // Reject garbage ("abc", "4x", "-2", "0", "") loudly: a typo silently
  // falling back to sequential execution is exactly the failure mode that
  // hides in CI for months.
  const long v = digits_only ? std::strtol(env, nullptr, 10) : 0;
  if (!digits_only || v < 1 || v > static_cast<long>(kMaxShards)) {
    throw std::invalid_argument("PERFCLOUD_SHARDS='" + s +
                                "' is not a valid shard count (expected an integer in [1, " +
                                std::to_string(kMaxShards) + "])");
  }
  return static_cast<unsigned>(v);
}

ShardSchedule Engine::schedule_from_env() {
  const char* env = std::getenv("PERFCLOUD_SCHED");
  if (env == nullptr) return ShardSchedule::kWorkStealing;
  const std::string s(env);
  if (s == "static") return ShardSchedule::kStatic;
  if (s == "ws" || s == "work-stealing" || s == "work_stealing") {
    return ShardSchedule::kWorkStealing;
  }
  throw std::invalid_argument("PERFCLOUD_SCHED='" + s +
                              "' is not a valid schedule (expected 'static' or 'ws')");
}

void Engine::set_shards(unsigned shards) {
  if (shards < 1 || shards > kMaxShards) {
    throw std::invalid_argument("Engine::set_shards: " + std::to_string(shards) +
                                " is not a valid shard count (expected an integer in [1, " +
                                std::to_string(kMaxShards) + "])");
  }
  if (pool_ != nullptr) {
    throw std::logic_error("Engine::set_shards: shard pool already running");
  }
  shards_ = shards;
}

EventHandle Engine::at(SimTime t, EventQueue::Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("Engine::at: time " + std::to_string(t.seconds()) +
                                " is before now " + std::to_string(now_.seconds()));
  }
  return queue_.schedule(t, std::move(cb));
}

EventHandle Engine::after(double dt, EventQueue::Callback cb) {
  if (dt < 0.0) {
    throw std::invalid_argument("Engine::after: negative delay " + std::to_string(dt));
  }
  return queue_.schedule(now_ + dt, std::move(cb));
}

void Engine::every(double period, PeriodicFn fn, SimTime start) {
  if (!(period > 0.0)) {
    throw std::invalid_argument("Engine::every: non-positive period " + std::to_string(period));
  }
  const SimTime first = start >= now_ ? start : now_;
  periodics_.push_back(Periodic{period, std::move(fn), first});
  push_due(first, periodics_.size() - 1);
}

void Engine::push_due(SimTime next, std::size_t index) {
  if (timeq_ == TimeQueueKind::kWheel) {
    // Registration index as both key and payload: unique per outstanding
    // entry and exactly the heap's (next, index) tie-break, so batches of
    // simultaneous periodics fire in the same order under either backend.
    periodic_due_.insert(next.seconds(), index, index);
  } else {
    due_.push(DueEntry{next, index});
  }
}

SimTime Engine::next_periodic_time() const {
  if (timeq_ == TimeQueueKind::kWheel) {
    const TimerWheel::Entry* e = periodic_due_.peek();
    return e == nullptr ? SimTime::infinity() : SimTime(e->t);
  }
  return due_.empty() ? SimTime::infinity() : due_.top().next;
}

ShardedPeriodic& Engine::every_sharded(double period, SimTime start) {
  sharded_.push_back(std::make_unique<ShardedPeriodic>());
  ShardedPeriodic* sp = sharded_.back().get();
  every(period,
        [this, sp](SimTime now) {
          run_shard_tasks(*sp, now);
          if (sp->barrier_) sp->barrier_(now);
          for (const PeriodicFn& hook : post_barrier_hooks_) hook(now);
        },
        start);
  return *sp;
}

void Engine::run_shard_tasks(ShardedPeriodic& sp, SimTime now) {
  const std::vector<ShardedPeriodic::Fn>& tasks = sp.tasks_;
  if (shards_ <= 1 || tasks.size() <= 1) {
    for (const ShardedPeriodic::Fn& task : tasks) task(now);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<ShardPool>(shards_);
  pool_->run(tasks.size(), [&](std::size_t i) { tasks[i](now); }, schedule_);
}

void Engine::fire_due_periodics(SimTime t) {
  // Fire periodics in (time, registration-index) order until none is due at
  // or before t. A periodic callback may register further periodics; `every`
  // pushes their due node, and they start no earlier than `now_`, so they
  // join this batch in the correct order if due.
  if (timeq_ == TimeQueueKind::kWheel) {
    TimerWheel::Entry e;
    while (true) {
      const TimerWheel::Entry* head = periodic_due_.peek();
      if (head == nullptr || SimTime(head->t) > t) return;
      periodic_due_.pop(e);
      now_ = SimTime(e.t);
      Periodic& p = periodics_[e.payload];
      p.next = p.next + p.period;
      periodic_due_.insert(p.next.seconds(), e.payload, e.payload);
      p.fn(now_);
      if (stopped_) return;
    }
  }
  while (!due_.empty() && due_.top().next <= t) {
    const DueEntry e = due_.top();
    due_.pop();
    now_ = e.next;
    Periodic& p = periodics_[e.index];
    p.next = p.next + p.period;
    due_.push(DueEntry{p.next, e.index});
    p.fn(now_);
    if (stopped_) return;
  }
}

SimTime Engine::run_until(SimTime t_end) {
  return run_while([] { return true; }, t_end);
}

SimTime Engine::run_while(const std::function<bool()>& keep_going, SimTime t_end) {
  stopped_ = false;
  while (!stopped_ && keep_going()) {
    const SimTime next_periodic = next_periodic_time();
    const SimTime next_event = queue_.next_time();
    const SimTime next = std::min(next_periodic, next_event);
    if (next > t_end || next == SimTime::infinity()) {
      if (t_end != SimTime::infinity()) now_ = t_end;
      break;
    }
    if (next_periodic <= next_event) {
      // Periodic activities (arbitration, monitors) run before one-shot
      // events carrying the same timestamp.
      fire_due_periodics(next_periodic);
    } else {
      now_ = next_event;
      queue_.run_next();
    }
  }
  for (const PeriodicFn& hook : run_end_hooks_) hook(now_);
  return now_;
}

}  // namespace perfcloud::sim
