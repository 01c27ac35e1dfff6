#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_hot --seed 1 --seconds 10 --trace 0

Workloads: solve_hot, analyze_churn (see perfbench/README.md). The build
goes to perfbench-<digest of the checkout's path> inside $CARGO_TARGET_DIR
(default .bench_build, relative to the checkout), so checkouts that share
one target directory never run each other's build; build output goes to
stderr. Standard output is the driver's:
provenance and detail lines, then one JSON result object as the last line.
Exits non-zero, printing no result, when the library sources are missing,
the build fails or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("solve_hot", "analyze_churn")


def run_timeout(seconds):
    """A hung run is stopped: the measured time plus generous room for
    set-up, the traced run's probes and verification."""
    return 110 + 3 * seconds


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / f"perfbench-{key}"


def build(out):
    """Configure once per build directory, then build the perfbench target
    (a no-op when nothing changed)."""
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return out / "perfbench"


def source_digest():
    """sha256 over the library sources, so results name the code they ran."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "exec" / "solver.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    binary = build(out)
    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out / "results")]
    timeout = run_timeout(args.seconds)
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:g} s")
    if r.returncode != 0:
        fail(f"run failed with exit code {r.returncode}")
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
