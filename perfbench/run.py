#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim_fast --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds the
ksw libraries plus the perfbench harness (Release) into the directory named
by $CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only
check the build is current. All arguments go to the harness (see
perfbench/README.md); traced runs write their ksw.trace/v1 file under
<build dir>/traces. Build output goes to stderr, so the last line of
stdout is the harness's result object. Exit status is the harness's, 2
when the build fails, or 3 when a run exceeds 170 s (it is killed).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    name = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, name)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    traces = os.path.join(out_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out_dir, "perfbench")] + sys.argv[1:]
    cmd += ["--trace-dir", traces]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
