"""The asmtree benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Checks the benchmark's own references and checkers, then runs the workload
in fresh interpreters (workloads.py): seven that only set up and exit, to
time the set-up, and one that sets up and measures. The last line of its output is
one JSON object: whether every answer was right, how many operations were
attempted and how many failed, and the metrics named in BENCHMARK.json,
the end-to-end ones untraced and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks  # this file's directory is sys.path[0]
import pace
import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE = 170.0  # seconds for the whole run, set-up included


class RunError(Exception):
    pass


def launch(cmd: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one workload interpreter to its end; return its CPU time and the
    lines it printed after "ready"."""
    used = pace.child_cpu()
    # A session of its own, so that a stuck `asmtree` child is stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError("the workload overran the run's deadline") from None
    lines = out.splitlines()
    if proc.returncode != 0 or lines[:1] != ["ready"]:
        raise RunError(f"the workload exited with code {proc.returncode}")
    return pace.child_cpu() - used, lines[1:]


def main() -> int:
    needed = ["BENCHMARK.json", "src/asmtree/__init__.py", "tests/oracles.py", "tests/data"]
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: run from a checkout of asmtree; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    parser = argparse.ArgumentParser(description="Run one asmtree benchmark workload.")
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE

    problems = checks.self_test() + refs.self_check(ROOT)
    if problems:
        for p in problems:
            print(f"perfbench: self-check failed: {p}", file=sys.stderr)
        return 1

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # Set-up is timed in interpreters that only set up and exit, each
        # paced by the pace children right before and after it (pace.py).
        setups = []
        before = pace.child_sample()
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            cpu = launch(cmd + ["--setup-only"], deadline)[0]
            after = pace.child_sample()
            setups.append(cpu * pace.child_scale(before, after))
            before = after
        result = json.loads(launch(cmd, deadline)[1][-1])
    except (RunError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    print(f"perfbench: {args.workload} seed {args.seed}: {result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
