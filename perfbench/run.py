#!/usr/bin/env python3
"""Repository benchmark: build the runner from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the runner plus bpnsp_served, from ../src) into
$CARGO_TARGET_DIR or .bench_build; later runs only re-check the build.
Every scratch file (trace cache, serve corpus, socket, spans) goes to a
fresh run directory under the build directory. The runner prints a
table and, as its last stdout line, one JSON result; this script passes
both through and exits with the runner's code.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ipc_sweep", "characterize", "trace_replay", "serve_mix")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure once, then (re)build the two targets; stdout stays clean."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources at src/: run from a repository checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "bpnsp_served", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(root, target)
    build_dir = os.path.join(base, "perfbench")
    build(root, build_dir)

    run_dir = os.path.join(base, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--served", os.path.join(build_dir, "bpnsp", "serve",
                                    "bpnsp_served")]
    # The runner works in run_dir with relative paths, which keeps the
    # daemon's UNIX socket path short whatever the checkout path is.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
