#!/usr/bin/env python3
"""Runs one workload of the GPUnion benchmark.

    python3 perfbench/run.py --workload campus --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  On first use it builds perfbench/
(CMake, RelWithDebInfo, the repository's src/ compiled in) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
benchmark binary.  The binary prints every metric by name and unit, the
simulated-outcome digest and, as its last line, one JSON result; it writes
the digest listing and, with --trace 1, a Perfetto trace to <build>/out/.
Exit status is non-zero, with no result printed, when the build fails or
an output check fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campus", "crunch", "fleet", "tenants")
# The default seed; README.md records the held-out one.
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(source: Path, build_dir: Path) -> None:
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(source), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                       stdout=sys.stderr, check=True)


def expected_metrics(root: Path, trace: int):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    spec = root / "BENCHMARK.json"
    if not spec.exists():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in json.loads(spec.read_text())[key]}


def check_result(line: str, expected) -> str:
    """Empty when `line` is a well-formed result, else what is wrong."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return f"last line is not JSON: {err}"
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return "result is not correct or attempted nothing"
    if expected is not None and set(result["metrics"]) != expected:
        return ("metrics differ from BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ expected)}")
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source = Path(__file__).resolve().parent
    root = source.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    try:
        build(source, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(build_dir / "out")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    problem = (f"benchmark exited with status {run.returncode}"
               if run.returncode != 0 or not lines else
               check_result(lines[-1], expected_metrics(root, args.trace)))
    if problem:
        sys.stderr.write(run.stdout)
        print(f"perfbench: {problem}", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
