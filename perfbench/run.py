#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all of them).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one process each
    python3 perfbench/run.py --selftest            # the checks must reject broken outputs

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench): an optimized build of ../src with telemetry
compiled in. The last line of stdout is the run's JSON result; a copy is
kept as results/<workload>.trace<T>.json in the build directory, so the
traced and untraced outputs of a workload sit side by side.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["orient-cycle", "gather-torus", "prove-batch", "faults-cycle"]
BUILD_TIMEOUT_S = 400
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir: Path) -> None:
    """Configures (once) and builds; exits non-zero if the sources are missing or do not build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: library sources not found under {ROOT / 'src'}")
    try:
        if not (bdir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir), *generator,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")


def run_workload(bdir: Path, workload: str, seed: int, seconds: int, trace: int) -> int:
    cmd = [str(bdir / "lad_perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        results = bdir / "results"
        results.mkdir(exist_ok=True)
        (results / f"{workload}.trace{trace}.json").write_text(lines[-1] + "\n")
    return proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload or --selftest is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        try:
            return subprocess.run([str(bdir / "lad_perfbench_selftest")], timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("run.py: self-test timed out", file=sys.stderr)
            return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for w in workloads:
        worst = max(worst, run_workload(bdir, w, args.seed, args.seconds, args.trace))
    return worst


if __name__ == "__main__":
    sys.exit(main())
