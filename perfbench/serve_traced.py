"""Run ``repro serve`` with the benchmark's layer tracer installed.

Usage: ``python3 perfbench/serve_traced.py OUT.json serve --scale smoke
--port 0`` -- the arguments after ``OUT.json`` go to the ``repro`` CLI
unchanged.  Spans are on for the whole server lifetime; when the server
drains and exits, the layer summary, the exact work counters, the wall
time and the measured cost of one span are written to ``OUT.json`` (and
the spans themselves, as Chrome trace events, beside it).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, span_cost_s  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    tracer.install()
    tracer.spans_on = True
    started = time.perf_counter()
    from repro.cli import main as cli_main
    try:
        return cli_main(argv[1:])
    finally:
        tracer.spans_on = False
        wall = time.perf_counter() - started
        summary = tracer.layer_summary()
        out.write_text(json.dumps({
            "summary": summary,
            "counts": dict(tracer.counts),
            "wall_s": wall,
            "span_cost_s": span_cost_s(tracer),
        }, sort_keys=True), encoding="utf-8")
        tracer.dump(out.with_suffix(".trace.json"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
