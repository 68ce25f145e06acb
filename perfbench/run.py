#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload ldpc_iso|des_sweep|char_lib \
        --seed N --seconds S --trace 0|1

Run from the root of a monolith3d checkout. The first run configures and
builds perfbench/ (the m3d library from src/ plus the m3d_perfbench program)
into .bench_build/perfbench; later runs only re-check the build. Build
output goes to stderr, so the last line of stdout is m3d_perfbench's JSON
result. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# m3d_perfbench exits well inside the benchmark's 180 s limit; this only stops
# a hung run from outliving the benchmark.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT} is not a monolith3d checkout (no src/CMakeLists.txt)")
    # The compiler's temporary files stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))

    def step(cmd, what):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail(f"{what} failed")

    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen], "cmake configure")
    step(["cmake", "--build", str(BUILD), "--target", "m3d_perfbench",
          "-j", str(jobs)], "build")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["ldpc_iso", "des_sweep", "char_lib"])
    p.add_argument("--seed", type=int, default=20130529)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()

    cores = os.cpu_count() or 1
    build(min(cores, 4))

    env = dict(os.environ)
    # A stage-artifact store would replay gen/synth/place instead of running
    # them, and M3D_TRACE would turn on in-program trace collection.
    env.pop("M3D_STORE", None)
    env.pop("M3D_TRACE", None)
    # The pool size m3d_perfbench pins: half the cores, at most 2.
    env["M3D_THREADS"] = str(max(1, min(cores // 2, 2)))
    env["M3D_LOG_LEVEL"] = "warn"
    cmd = [str(BUILD / "m3d_perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        fail("benchmark run did not finish")
    if rc:
        fail(f"m3d_perfbench exited with {rc}")


if __name__ == "__main__":
    main()
