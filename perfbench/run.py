#!/usr/bin/env python3
"""Build and run the smtavf wall-clock benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--holdout] [--smoke]

Run from the root of a source tree. The first call configures and builds
perfbench/ (which compiles the library from src/ in Release mode) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Then it runs one workload and passes the program's
output through: metric lines, and as the last line one JSON object with
the keys correct, attempted, failed and metrics. The exit code is the
program's: 0 when every correctness check passed.

Workloads: steady-8ctx-mix, steady-2ctx-cpu, campaign-process,
beam-thread (see perfbench/README.md). --holdout maps the seed into a
second seed family, for checking a claim on inputs it was not tuned on.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 10


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_root):
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found (src/CMakeLists.txt); run from "
             "the root of a full source tree")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-digest", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    binary = build(build_root)
    workdir = os.path.join(build_root, "run-" + args.workload)
    os.makedirs(workdir, exist_ok=True)

    # The library reads SMTAVF_* knobs (invariant checks, budgets, jobs)
    # from the environment; none may leak into a measurement.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMTAVF_")}
    env["TMPDIR"] = workdir
    env["PERFBENCH_GIT_REV"] = git_revision()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    cmd += ["--holdout"] if args.holdout else []
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--corrupt-digest"] if args.corrupt_digest else []
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, env=env,
                            timeout=max(170, 2 * args.seconds + 60)).returncode
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time", 1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
