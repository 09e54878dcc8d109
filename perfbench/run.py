#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the library modules under src/ plus the benchmark binary)
in Release mode into .bench_build/ (or $CARGO_TARGET_DIR when set);
later calls rebuild only what changed. The binary's report goes to
standard output and its last line is the JSON result; build output goes
to standard error. Traced runs write their spans under .bench_out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-hot", "serve-spill", "crash-sweep", "fleet-storm")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed < 0:
        fail("--seed must not be negative")
    return args


def build():
    """Configure (once) and build the binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", build_dir, "--target",
                        "wsp_perfbench", "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "wsp_perfbench")


def check_metric_names(result, trace):
    """The binary's metric set must match BENCHMARK.json's."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(expected) - set(got)),
                sorted(set(got) - set(expected))))


def main():
    args = parse_args()
    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d and no result" % proc.returncode)
    result = json.loads(lines[-1])
    check_metric_names(result, args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
