#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fleet-learn|fleet-churn|serve-socket>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to .bench_build (or $CARGO_TARGET_DIR) and run outputs
(saved repository, daemon logs, socket, traces) to .bench_out. Build
output goes to stderr; the driver's last stdout line is the result
object. --self-test runs the correctness checks against corrupted
outputs instead of a workload.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then bring the targets up to date."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench", "dejavud", "perfbench_checks_test"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--self-test"]:
        command = [os.path.join(build_dir, "perfbench_checks_test")]
    else:
        command = [os.path.join(build_dir, "perfbench"),
                   "--dejavud", os.path.join(build_dir, "dejavu", "dejavud"),
                   "--out", ".bench_out"] + sys.argv[1:]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
