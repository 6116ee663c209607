"""Steadiness check: run the benchmark once per seed on each workload and
report, for every end-to-end metric, the median of the runs and their
spread, the distance between the first and third quartile as a share of
the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads cli,enumerate] [--seeds 1-10] [--against 11-20] [--out FILE]

With --against, a second set of runs on those seeds is made, interleaved
with the first (A1 B1 A2 B2 ...), so that both sets see the same drift of
the machine; the change of each median from the first set to the second
is then checked against the bound too. Runs go one after another, never
in parallel. The check passes only if every run is correct and fails no
operation, every spread (setup_s included) is within its bound, and no
median of the second set is worse than the first by more than the bound.
The raw figures of every run are written as JSON to --out (default
perfbench/_run/steady-<time>.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run(bench: dict, workload: str, seed: int) -> dict | None:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"{workload} seed {seed}: exit code {proc.returncode}")
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
          f"failed {result['failed']}/{result['attempted']}", flush=True)
    return result


def report(bench: dict, sets: list[list[dict]]) -> bool:
    """Print each set's medians and spreads, and the second set's change;
    return whether everything is within its bound."""
    ok = True
    for i, runs in enumerate(sets):
        clean = all(r["correct"] and r["failed"] == 0 for r in runs)
        print(f"  set {'AB'[i]}: every run correct with 0 failed operations: {clean}")
        ok &= clean
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        parts = []
        medians = []
        for i, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            medians.append(statistics.median(values))
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            ok &= s <= bound
            parts.append(f"set {'AB'[i]} median {medians[-1]:.5g} spread {s:.3f} ({verdict})")
        if len(medians) == 2:
            change = medians[1] / medians[0] - 1
            worse = change if metric["better"] == "lower" else -change
            ok &= worse <= bound
            parts.append(f"B vs A {change:+.3f} ({'ok' if worse <= bound else 'WORSE THAN BOUND'})")
        print(f"  {name:>16} [{metric['unit']}, bound {bound}]: " + "; ".join(parts))
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds and report spreads.")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--against", type=seed_range, help="seeds of a second set, run interleaved")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.against and len(args.against) != len(args.seeds):
        parser.error("--against needs as many seeds as --seeds")
    out = args.out or HERE / "_run" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)

    record = {}
    ok = True
    for workload in args.workloads.split(","):
        sets: list[list[dict]] = [[] for _ in range(2 if args.against else 1)]
        for i, seed in enumerate(args.seeds):
            for runs, s in zip(sets, (seed, *(args.against[i:i + 1] if args.against else ()))):
                result = run(bench, workload, s)
                if result is None:
                    return 1
                runs.append(result)
        record[workload] = sets
        out.write_text(json.dumps(record, indent=1))
        ok &= report(bench, sets)
    print(f"raw figures: {out}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
