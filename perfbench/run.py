#!/usr/bin/env python3
"""Build and run the PerfCloud simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload busy_mix --seed 1 --seconds 30 --trace 0

Builds the simulator from ../src and the benchmark in perfbench/ into
.bench_build (configure once, then incremental), then runs it: the
plain binary for --trace 0, the one with the counting allocator hook for
--trace 1. Build output goes to .bench_out/build.log; the benchmark's stdout
passes through, and its last line is the JSON result. Exits non-zero without
a result when the simulator sources are missing, the build fails, or any
PERFCLOUD_* variable is set.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
TARGETS = ["perfbench", "perfbench_traced"]


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build() -> None:
    OUT.mkdir(exist_ok=True)
    log_path = OUT / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS])
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})", 1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="busy_mix, busy_mix_s4, fleet_chaos, or a comma-separated list")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    # The program's own defaults are what gets measured.
    overrides = sorted(k for k in os.environ if k.startswith("PERFCLOUD_"))
    if overrides:
        fail(f"unset {', '.join(overrides)}: the benchmark measures the program's defaults")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"simulator sources not found under {ROOT / 'src'}")

    build()
    binary = BUILD / TARGETS[int(args.trace)]
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", str(OUT)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
