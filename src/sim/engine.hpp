// Simulation engine: clock, event dispatch, and periodic activities.
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/shard_pool.hpp"
#include "sim/types.hpp"

namespace perfcloud::sim {

/// A periodic activity whose work is a batch of independent host-local tasks
/// plus an optional sequential cross-host phase — the engine's sharded
/// execution unit (one per host group, not one periodic per host).
///
/// Each firing runs every task for the quantum across the engine's shard
/// pool, waits at the barrier, then runs the barrier function on the engine
/// thread. Tasks fire in index order when the engine has one shard; with
/// more shards they run concurrently, so each task must be thread-confined:
/// it may touch only its own host's state and read-only shared data — never
/// the engine (at/after/every/rng/stop), the registry it shares with sibling
/// tasks, or another host. Cross-host mutation belongs in the barrier
/// function, which runs alone.
///
/// Tasks may be appended between firings (hosts registering during setup);
/// appending from inside a task or barrier is not allowed.
class ShardedPeriodic {
 public:
  using Fn = std::function<void(SimTime)>;

  void add_task(Fn fn) { tasks_.push_back(std::move(fn)); }
  void set_barrier(Fn fn) { barrier_ = std::move(fn); }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }

 private:
  friend class Engine;
  std::vector<Fn> tasks_;
  Fn barrier_;
};

/// Owns the simulated clock and the event queue, and drives periodic
/// activities (resource-arbitration ticks, monitor sampling, framework
/// scheduling polls).
///
/// Periodic activities registered with the same period fire in registration
/// order at each multiple of the period — deterministic, which matters
/// because arbitration must run before monitors sample its results.
///
/// The next-due periodic is tracked by the engine's time core, keyed by
/// (next_fire, registration_index). With the kHeap backend that is a
/// min-heap (O(1) peek, O(log P) re-insert per firing); with kWheel (the
/// default) both the peek and the re-arm are O(1) through a hierarchical
/// TimerWheel. Firing order — and therefore every output byte — is
/// identical across backends.
class Engine {
 public:
  using PeriodicFn = std::function<void(SimTime)>;

  explicit Engine(std::uint64_t seed = 42, TimeQueueKind timeq = time_queue_from_env());

  /// Backend of the time core (event queue + periodic re-arming), fixed at
  /// construction: PERFCLOUD_TIMEQ or the explicit constructor argument.
  [[nodiscard]] TimeQueueKind time_queue() const { return timeq_; }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedule a one-shot event at absolute time `t`.
  /// Throws std::invalid_argument if `t` is in the past (t < now()).
  EventHandle at(SimTime t, EventQueue::Callback cb);
  /// Schedule a one-shot event `dt` seconds from now.
  /// Throws std::invalid_argument if `dt` is negative.
  EventHandle after(double dt, EventQueue::Callback cb);
  bool cancel(EventHandle h) { return queue_.cancel(h); }

  /// Register a periodic activity firing every `period` seconds, first at
  /// time `start` (clamped up to now() if it lies in the past). Runs until
  /// the engine stops; there is no deregistration because entities live as
  /// long as the experiment.
  /// Throws std::invalid_argument if `period` is not positive.
  void every(double period, PeriodicFn fn, SimTime start = SimTime(0.0));

  /// Register a sharded periodic: one heap entry for a whole host group.
  /// Each firing runs the group's tasks across `shards()` threads, barriers,
  /// then runs its sequential phase. The returned reference stays valid for
  /// the engine's lifetime; add per-host tasks to it during setup.
  ShardedPeriodic& every_sharded(double period, SimTime start = SimTime(0.0));

  /// Run `fn` on the engine thread after every sharded periodic's firing,
  /// once its tasks have cleared the barrier and its sequential phase has
  /// run. This is the drain point for emission sinks: everything the shard
  /// tasks staged during the quantum is quiescent here. Hooks run in
  /// registration order; `fn` must outlive the engine's runs.
  void add_post_barrier_hook(PeriodicFn fn) { post_barrier_hooks_.push_back(std::move(fn)); }

  /// Run `fn` on the engine thread whenever a run_until/run_while call
  /// returns (end-of-run flush point for emission sinks). Hooks run in
  /// registration order, every time a run returns.
  void add_run_end_hook(PeriodicFn fn) { run_end_hooks_.push_back(std::move(fn)); }

  /// Worker threads for sharded periodics. Defaults to PERFCLOUD_SHARDS
  /// (a decimal integer in [1, 4096]; anything else — "abc", "0", "-2" —
  /// throws std::invalid_argument at construction rather than silently
  /// falling back) or 1 when unset; results are byte-identical for any value.
  [[nodiscard]] unsigned shards() const { return shards_; }
  /// Override the shard count. Throws std::invalid_argument outside
  /// [1, 4096] and std::logic_error once the pool exists (a sharded
  /// periodic has fired).
  void set_shards(unsigned shards);

  /// Claim discipline for sharded batches. Defaults to PERFCLOUD_SCHED
  /// ("static", or "ws"/"work-stealing"/"work_stealing"; anything else
  /// throws std::invalid_argument) or work-stealing when unset. Results are
  /// byte-identical under either schedule; only wall-clock time differs.
  [[nodiscard]] ShardSchedule schedule() const { return schedule_; }
  void set_schedule(ShardSchedule schedule) { schedule_ = schedule; }

  /// Run until the queue drains or `t_end` is reached, whichever is first.
  /// Returns the final simulated time.
  SimTime run_until(SimTime t_end);

  /// Run until `predicate()` becomes true (checked after every event) or
  /// `t_end` is reached. Used by experiment drivers to stop when a job set
  /// completes.
  SimTime run_while(const std::function<bool()>& keep_going, SimTime t_end);

  /// Request the current run_* call to return after the in-flight event.
  void stop() { stopped_ = true; }

 private:
  struct Periodic {
    double period;
    PeriodicFn fn;
    SimTime next;
  };

  /// One heap node per registered periodic, keyed by its pending fire time.
  /// Each periodic has exactly one outstanding node at any moment: firing
  /// pops it and pushes the advanced time back.
  struct DueEntry {
    SimTime next;
    std::size_t index;  ///< Registration index into periodics_.
    bool operator>(const DueEntry& other) const {
      if (next != other.next) return next > other.next;
      return index > other.index;
    }
  };

  /// Fire all periodics due at or before `t`, in a globally time-ordered,
  /// registration-stable order.
  void fire_due_periodics(SimTime t);
  /// Hand a periodic's pending fire time to the selected time core.
  void push_due(SimTime next, std::size_t index);
  [[nodiscard]] SimTime next_periodic_time() const;

  /// Run a sharded group's tasks for the quantum ending at `now`: inline in
  /// index order with one shard, across the pool (created lazily) otherwise.
  void run_shard_tasks(ShardedPeriodic& sp, SimTime now);
  static unsigned shards_from_env();
  static ShardSchedule schedule_from_env();

  SimTime now_{0.0};
  /// Declared before queue_/periodic_due_: both backends key off it.
  TimeQueueKind timeq_;
  EventQueue queue_;
  std::vector<Periodic> periodics_;
  /// kHeap backend for the pending fire times.
  std::priority_queue<DueEntry, std::vector<DueEntry>, std::greater<>> due_;
  /// kWheel backend: key and payload are both the registration index (one
  /// outstanding entry per periodic; periodics never deregister, so the
  /// erase path is never used). Mutable: peeking maintains the cached
  /// minimum.
  mutable TimerWheel periodic_due_;
  /// unique_ptr for address stability: firing closures hold raw pointers.
  std::vector<std::unique_ptr<ShardedPeriodic>> sharded_;
  std::vector<PeriodicFn> post_barrier_hooks_;
  std::vector<PeriodicFn> run_end_hooks_;
  unsigned shards_;
  ShardSchedule schedule_;
  std::unique_ptr<ShardPool> pool_;
  Rng rng_;
  bool stopped_ = false;
};

}  // namespace perfcloud::sim
