#!/usr/bin/env python3
"""Builds the SPEAr benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The engine (src/) and the benchmark program are
compiled with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use; the build log goes to stderr only if
the build fails. The last line of stdout is the result JSON. With --trace 1
the spans are written to <build dir>/spans/<workload>-seed<N>.jsonl. See
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no SPEAr sources at {ROOT / 'src'}")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j",
                  str(min(4, os.cpu_count() or 1)),
                  "--target", "spear_perfbench"])
    for step in steps:
        # Quiet when up to date; the whole log goes to stderr on failure.
        done = subprocess.run(step, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise subprocess.CalledProcessError(done.returncode, step)
    return bdir / "spear_perfbench"


def git_sha() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace == "1":
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--span-file", str(spans / f"{args.workload}-seed{seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
