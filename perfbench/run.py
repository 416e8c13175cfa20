#!/usr/bin/env python3
"""Build the benchmark, pin it to one CPU and run it.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 24 --trace 0

The build runs on every CPU; the measured process runs on one. On `served`
the client and server threads hand every command back and forth: on one
CPU a round trip is two context switches, while across two virtual CPUs
each handoff wakes an idle CPU, and how long that takes depends on when
the host schedules it (unpinned, runs fell into a mode with half the
throughput and four times the p99 command latency). The single-threaded
workloads are pinned too, so no run migrates between CPUs mid-measurement.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
