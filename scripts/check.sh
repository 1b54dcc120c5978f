#!/usr/bin/env bash
# Full check: the test suite under ASan+UBSan (plus sharded perf-label
# sweeps), the same suite under TSan with the host shard sweeps actually
# parallel (PERFCLOUD_SHARDS=4, both claim disciplines, wheel time core
# pinned), the zero-steady-state-allocation gate on the release build, and
# determinism gates diffing real bench output across shard counts,
# schedulers, emission modes, and time-queue backends (wheel vs heap).
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== ASan + UBSan =="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
UBSAN_OPTIONS=halt_on_error=1 ctest --preset asan -j "$(nproc)" "$@"
# The perf-label tests again, sharded, under both claim disciplines: the
# slot-store hot path (the monitor's per-VM rows, the node manager's
# retained scratch vectors) and the identifier's key-based pair state run
# their multi-host scenarios with ASan watching for stale-slot reads after
# VM eviction, migration and host crashes.
UBSAN_OPTIONS=halt_on_error=1 PERFCLOUD_SHARDS=4 ctest --preset asan -L perf -j "$(nproc)"
UBSAN_OPTIONS=halt_on_error=1 PERFCLOUD_SHARDS=4 PERFCLOUD_SCHED=static \
  ctest --preset asan -L perf -j "$(nproc)"

echo "== TSan, sharded (PERFCLOUD_SHARDS=4) =="
# Every sharded periodic in every test runs its host-local tasks across 4
# threads, so the pool's handoffs and the thread-confinement of the
# hypervisor/monitor/node-manager pipelines are exercised under TSan. The
# fault tests (pc_faults_tests, label "faults") are part of the suite, so
# chaos runs — host crashes, blackouts, lossy cap channels — get the same
# sanitizer sweeps as everything else.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
# Default schedule is work-stealing, so this sweep runs the CAS-claim path
# (index order, growing chunks) under TSan everywhere.
PERFCLOUD_SHARDS=4 ctest --preset tsan -j "$(nproc)" "$@"
# And the static claim discipline, via the scheduler/fast-path tests
# (label "perf") which also drive full multi-host scenarios.
PERFCLOUD_SHARDS=4 PERFCLOUD_SCHED=static ctest --preset tsan -L perf -j "$(nproc)"
# The policy tests once more under TSan with the static discipline: the
# policy's barrier hook folds every host's monitor/controller state on the
# engine thread right after the parallel half, which is exactly the
# boundary a racy shard handoff would corrupt.
PERFCLOUD_SHARDS=4 PERFCLOUD_SCHED=static ctest --preset tsan -L policy -j "$(nproc)"
# The perf-label tests with the timer-wheel time core pinned explicitly
# (it is the default, but the pin keeps this sweep meaningful if the
# default ever changes): the wheel feeds the sharded periodics that every
# thread handoff above hangs off, so TSan must see the wheel-driven
# schedule, not just the heap reference.
PERFCLOUD_SHARDS=4 PERFCLOUD_TIMEQ=wheel ctest --preset tsan -L perf -j "$(nproc)"

echo "== shard + scheduler determinism gate =="
# A multi-host figure bench must emit byte-identical stdout for any shard
# count AND either claim discipline; wall-clock time is the only thing the
# scheduler is allowed to change.
cmake --preset release
cmake --build --preset release -j "$(nproc)" --target ext_heterogeneous
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
PERFCLOUD_SHARDS=1 ./build-release/bench/ext_heterogeneous > "$tmpdir/shards1.txt" 2> /dev/null
for variant in "4 ws" "1 static" "4 static"; do
  read -r n sched <<< "$variant"
  PERFCLOUD_SHARDS=$n PERFCLOUD_SCHED=$sched \
    ./build-release/bench/ext_heterogeneous > "$tmpdir/shards$n-$sched.txt" 2> /dev/null
  diff "$tmpdir/shards1.txt" "$tmpdir/shards$n-$sched.txt"
done
# The heap time-queue backend against the wheel-driven baseline (the wheel
# is the default, so shards1.txt above already used it): swapping the time
# core may change wall-clock only, never an output byte.
PERFCLOUD_TIMEQ=heap ./build-release/bench/ext_heterogeneous \
  > "$tmpdir/shards1-heap.txt" 2> /dev/null
diff "$tmpdir/shards1.txt" "$tmpdir/shards1-heap.txt"
echo "ext_heterogeneous: byte-identical output across shard counts, schedulers, and time queues"

echo "== zero-steady-state-allocation gate =="
# The release build (no sanitizer allocator inflating counts) runs the
# AllocGate suite: a warmed control quantum — monitor, detect, identify,
# bookkeeping — must perform zero heap allocations, and the suite
# self-checks that the counting operator-new hook is linked and counting
# before trusting any zero.
cmake --build --preset release -j "$(nproc)" --target pc_perf_tests
./build-release/tests/pc_perf_tests --gtest_filter='AllocGate.*'

echo "== packed-placement migration determinism gate =="
# micro_migrate drives the §IV-D escalation path with live migrations in
# flight (packed placement manufactures the collision) and prints only
# simulation results to stdout; it also hard-fails internally if its packed
# live-migration run differs between explicit shards 1 and 4. The diff
# re-checks the env-driven path from the outside: migrations, escalations,
# pre-copy inflows, pauses, and node-manager state handoffs may not change a
# single output bit with the host sweeps actually parallel. (The new
# migration/fault tests themselves run under TSan above via the full suite.)
cmake --build --preset release -j "$(nproc)" --target micro_migrate
( cd "$tmpdir" && PERFCLOUD_SHARDS=1 "$OLDPWD/build-release/bench/micro_migrate" \
    > migrate_shards1.txt )
( cd "$tmpdir" && PERFCLOUD_SHARDS=4 "$OLDPWD/build-release/bench/micro_migrate" \
    > migrate_shards4.txt )
( cd "$tmpdir" && PERFCLOUD_SHARDS=4 PERFCLOUD_SCHED=static \
    "$OLDPWD/build-release/bench/micro_migrate" > migrate_shards4_static.txt )
diff "$tmpdir/migrate_shards1.txt" "$tmpdir/migrate_shards4.txt"
diff "$tmpdir/migrate_shards1.txt" "$tmpdir/migrate_shards4_static.txt"
echo "micro_migrate: byte-identical output across shard counts and schedulers"

echo "== migration-policy determinism gate =="
# micro_policy folds cluster-wide state (every host's monitors, controllers,
# deviation signals) each policy interval and issues live migrations from
# the barrier phase; its stdout is pure simulation output, so the decision
# layer may not change a single bit with the host sweeps actually parallel.
# The binary also hard-fails internally if the scored run differs between
# explicit shards 1 and 4.
cmake --build --preset release -j "$(nproc)" --target micro_policy
( cd "$tmpdir" && PERFCLOUD_SHARDS=1 "$OLDPWD/build-release/bench/micro_policy" \
    > policy_shards1.txt )
( cd "$tmpdir" && PERFCLOUD_SHARDS=4 "$OLDPWD/build-release/bench/micro_policy" \
    > policy_shards4.txt )
( cd "$tmpdir" && PERFCLOUD_SHARDS=4 PERFCLOUD_SCHED=static \
    "$OLDPWD/build-release/bench/micro_policy" > policy_shards4_static.txt )
diff "$tmpdir/policy_shards1.txt" "$tmpdir/policy_shards4.txt"
diff "$tmpdir/policy_shards1.txt" "$tmpdir/policy_shards4_static.txt"
echo "micro_policy: byte-identical output across shard counts and schedulers"

echo "== fault-plan determinism gate =="
# A chaos run (host crash + blackout + disk degrade + cap-command loss +
# VM stall + task failures) must be byte-identical — stdout AND the emitted
# trace/event files — for any shard count and for sync vs async emission.
# Faults may only change what the simulation does, never whether it is
# deterministic.
cmake --build --preset release -j "$(nproc)" --target chaos_resilience
for mode in s1-async s4-async s1-sync s4-static-async s1-heap-async; do
  mkdir -p "$tmpdir/chaos-$mode"
done
PERFCLOUD_SHARDS=1 ./build-release/examples/chaos_resilience \
  "$tmpdir/chaos-s1-async" async > "$tmpdir/chaos-s1-async/stdout.txt"
PERFCLOUD_SHARDS=4 ./build-release/examples/chaos_resilience \
  "$tmpdir/chaos-s4-async" async > "$tmpdir/chaos-s4-async/stdout.txt"
PERFCLOUD_SHARDS=1 ./build-release/examples/chaos_resilience \
  "$tmpdir/chaos-s1-sync" sync > "$tmpdir/chaos-s1-sync/stdout.txt"
# The static claim discipline under a full chaos plan: scheduler choice
# must be invisible even when hosts crash mid-run.
PERFCLOUD_SHARDS=4 PERFCLOUD_SCHED=static ./build-release/examples/chaos_resilience \
  "$tmpdir/chaos-s4-static-async" async > "$tmpdir/chaos-s4-static-async/stdout.txt"
# The heap time-queue backend under the full chaos plan: fault timers,
# crash cleanups, and blackout windows are all scheduled through the time
# core, so this is the harshest place for the wheel (the default above)
# and the heap to disagree by even one bit.
PERFCLOUD_SHARDS=1 PERFCLOUD_TIMEQ=heap ./build-release/examples/chaos_resilience \
  "$tmpdir/chaos-s1-heap-async" async > "$tmpdir/chaos-s1-heap-async/stdout.txt"
for f in stdout.txt chaos_trace.csv chaos_events.jsonl; do
  diff "$tmpdir/chaos-s1-async/$f" "$tmpdir/chaos-s4-async/$f"
  diff "$tmpdir/chaos-s1-async/$f" "$tmpdir/chaos-s1-sync/$f"
  diff "$tmpdir/chaos-s1-async/$f" "$tmpdir/chaos-s4-static-async/$f"
  diff "$tmpdir/chaos-s1-async/$f" "$tmpdir/chaos-s1-heap-async/$f"
done
echo "chaos_resilience: byte-identical across shard counts, schedulers, emission modes, and time queues"
