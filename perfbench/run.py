#!/usr/bin/env python3
"""Builds the perfbench program from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

`--workload all` runs every workload listed in BENCHMARK.json in turn and
exits non-zero if any of them does.

Run from the root of a source checkout.  perfbench is built with CMake
into .bench_build/perfbench (configured once, rebuilt incrementally); build
output goes to stderr, so the last line of stdout is the program's JSON
result.  Generated inputs, checkpoints and serve roots live under
.bench_build/perfbench-work, on the checkout's own filesystem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "perfbench-work")


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    runs = [argv]
    at = argv.index("--workload") + 1 if "--workload" in argv else 0
    if at and argv[at:at + 1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        runs = [argv[:at] + [name] + argv[at + 1:] for name in names]
    code = 0
    for args in runs:
        result = subprocess.run([binary, *args, "--work-dir", WORK], cwd=ROOT)
        code = code or result.returncode
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
