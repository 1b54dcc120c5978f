// Worker pool for the engine's sharded periodics (quantum-barrier model).
//
// One pool per Engine, created lazily when the first sharded periodic fires
// with more than one shard configured. `run` executes a batch of independent
// host-local tasks across the pool and returns only when every task has
// completed — the time-quantum barrier. Tasks must be thread-confined: each
// may touch only its own host's state (hypervisor, monitor, node-manager
// members, per-host RNG streams) plus read-only shared data, never the
// engine, the event queue, or another host.
//
// Two claim disciplines:
//  - kStatic: the batch is cut into `shards` contiguous blocks and each
//    participant takes one whole block — the classic static partition. A
//    single expensive task (a straggler-victim + antagonist host) serializes
//    behind everything else in its block while the other shards idle at the
//    barrier.
//  - kWorkStealing: indices are claimed in index order from one shared
//    atomic cursor in growing chunks. The first 4*shards tasks are claimed
//    one at a time; later claims take linearly larger chunks to keep cursor
//    traffic low. A heavy task then occupies only the shard that claimed it
//    while every other shard keeps claiming the rest.
//
// Determinism: which worker runs which task — and in which order — is
// scheduling-dependent under BOTH disciplines, but because tasks are
// confined to disjoint state and all cross-host logic (barrier phase, sink
// drain) runs sequentially after the barrier in (time, source-index) order,
// simulation results are byte-identical for any shard count and either
// schedule (pinned by the ShardDeterminism tests and scripts/check.sh).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perfcloud::sim {

/// Claim discipline for a sharded batch. kWorkStealing is the engine
/// default; kStatic is kept as a second schedule for the output-identity
/// gates (PERFCLOUD_SCHED).
enum class ShardSchedule { kStatic, kWorkStealing };

[[nodiscard]] const char* to_string(ShardSchedule s);

class ShardPool {
 public:
  /// Spawns `shards - 1` workers; the caller of `run` is the remaining shard.
  /// `shards` must be >= 1 (a 1-shard pool has no workers and runs inline).
  explicit ShardPool(unsigned shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] unsigned shards() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Run body(0..n-1) across the pool and wait for all of them (the
  /// barrier). If any task throws, the remaining tasks still run, the
  /// barrier completes, and the first exception captured is rethrown here.
  void run(std::size_t n, const std::function<void(std::size_t)>& body,
           ShardSchedule schedule = ShardSchedule::kWorkStealing);

 private:
  void worker_loop();
  /// Claim and execute chunks of the generation-`gen` batch until none
  /// remain (or the generation has been superseded — a straggler waking
  /// late finds the claim word's generation advanced and backs off without
  /// touching batch state).
  void drain(std::uint32_t gen);

  static std::uint64_t pack(std::uint32_t gen, std::uint32_t pos) {
    return (static_cast<std::uint64_t>(gen) << 32) | pos;
  }

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Batch parameters, guarded by mu_; workers copy them under the lock when
  // they wake for a new generation. A stale copy is harmless: claims go
  // through the generation-checked claim word below, so a straggler can
  // never execute (or double-execute) work from a batch it did not claim.
  std::uint32_t generation_ = 0;
  bool shutdown_ = false;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  ShardSchedule schedule_ = ShardSchedule::kWorkStealing;
  std::exception_ptr error_;  // first failure of the running batch

  // (generation << 32) | next-claim-index. The single CAS target every
  // participant claims chunks from; the generation tag makes claims from a
  // superseded batch fail instead of stealing the new batch's indices.
  std::atomic<std::uint64_t> claim_{0};
  // Tasks not yet completed in the current batch. The caller's barrier wait
  // is `remaining_ == 0`; the participant whose chunk completion drops it to
  // zero notifies cv_done_.
  std::atomic<std::size_t> remaining_{0};
};

}  // namespace perfcloud::sim
