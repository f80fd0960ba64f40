#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <interactive|multitenant|process_cluster>
                             --seed <n> --seconds <s> --trace <0|1>

The engine library, the presto_worker daemon and the perfbench driver are
built from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), with CMake in Release mode. The driver's standard
output is passed through; its last line is the result object. The exit
code is non-zero when the build fails, a query fails or returns a wrong
result, or the engine leaks queries, buffers or worker daemons.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no engine sources under %s/src\n" % ROOT)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def git_sha():
    """HEAD of the repository, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 2

    return subprocess.call([binary, "--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace),
                            "--git-sha", git_sha()])


if __name__ == "__main__":
    sys.exit(main())
