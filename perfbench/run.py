"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 12 \
        --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` is the separate traced run
and prints every per-layer metric instead.  Human-readable lines (each
metric by name and unit, the checks, exact work counts and provenance)
start with ``#``; the last line is the JSON result.  A failed output
check makes ``correct`` false; a run that cannot measure (no program
source, a generator that fell behind) exits non-zero without a result.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, RUN_ENV  # noqa: E402  (stdlib-only module)

WORKLOADS = ("paper-cold", "dse-warm", "serve-open")

#: per-layer metrics of the server and its load generator: a workload
#: that runs no server reports them as zero (the layer did no work)
SERVER_LAYER = {"server.p50_pct": "%", "server.p99_pct": "%",
                "server.batch_mean": "count", "server.fills": "count",
                "loadgen.late_pct": "%"}


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # pinned before anything imports numpy: one BLAS thread, one runner
    # worker, the result cache on, no fault injection
    os.environ.update(RUN_ENV)
    os.environ.pop("REPRO_CHAOS", None)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import Run
    from tracer import Tracer
    import dse_warm
    import paper_cold
    import serve_open

    tracer = Tracer()
    tracer.install()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              tracer)
    module = {"paper-cold": paper_cold, "dse-warm": dse_warm,
              "serve-open": serve_open}[args.workload]
    try:
        module.run_workload(run)
    except serve_open.InvalidRun as exc:
        print(f"error: invalid run, not recorded: {exc}", file=sys.stderr)
        return 3
    if args.trace and args.workload != "serve-open":
        for name, unit in SERVER_LAYER.items():
            run.metric(name, 0.0, unit)
    run.emit(declared("per_layer" if args.trace else "end_to_end"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
