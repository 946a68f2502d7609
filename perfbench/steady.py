"""Steadiness self-check: run one workload N times and show the spread.

Usage (from the checkout root)::

    python3 perfbench/steady.py --workload dse-warm --runs 10 [--seed0 1]

Runs ``perfbench/run.py`` once per seed (``seed0``, ``seed0 + 1``, ...),
one run at a time, and prints for every end-to-end metric the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the spread -- the interquartile distance as a share of the median --
against the metric's bound in ``BENCHMARK.json``.  ``setup_s`` pays its
cold fill once per run, so its spread is shown explicitly too, although
only its median is compared between sets of runs.

It also compares the exact work counts each run recorded for its
set-up, its first timed iteration and (``serve-open``) its fixed-rate
phase: the same code must do the same work, so a count that differs
between runs is reported as nondeterminism, not as timing noise.  Exits
1 if a run failed, a check failed, a spread exceeds its bound or a
count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: count phases that must repeat exactly between runs of the same code
STABLE_PHASES = ("setup", "iter0", "steady")


def one_run(workload: str, seed: int, seconds: int,
            trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    counts: dict[str, list] = {}
    bad = False
    for i in range(args.runs):
        seed = args.seed0 + i
        try:
            result, detail = one_run(args.workload, seed,
                                     spec["run_seconds"], args.trace)
        except RuntimeError as exc:
            print(exc, flush=True)
            bad = True
            continue
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}")
            bad = True
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for phase in STABLE_PHASES:
            if phase in detail.get("counts", {}):
                counts.setdefault(phase, []).append(
                    (seed, detail["counts"][phase]))
        print(f"seed {seed}: " + " ".join(
            f"{name}={result['metrics'][name]['value']:.6g}"
            for name in values), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of "
          f"{spec['run_seconds']} s")
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>8}  verdict")
    for name, series in values.items():
        if len(series) < 2:
            print(f"{name}: {len(series)} successful runs, no spread")
            continue
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf") if q3 > q1 else 0.0
        bound = bounds[name]
        if bound is None:
            verdict = "-"
        elif name == "setup_s":
            verdict = "cold fill once per run; medians compared only"
        elif spread <= bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            bad = True
        print(f"{name:<22}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.3f}{bound if bound is not None else '-':>8}"
              f"  {verdict}")
    for phase, rows in counts.items():
        first_seed, first = rows[0]
        for seed, row in rows[1:]:
            if row != first:
                print(f"NONDETERMINISM: {phase} counts of seed {seed} "
                      f"{row} differ from seed {first_seed} {first}")
                bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
