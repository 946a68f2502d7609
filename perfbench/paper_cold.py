"""``paper-cold``: the paper's own use -- Table I and Table III from cold.

One iteration resets the in-process build memos and benches
(``clear_build_cache``, ``clear_program_cache``, ``reset_benches``),
points the runner at an empty result cache and runs the Table I
calibration plus the Table III evaluation at smoke scale, exactly as
``repro table1`` and ``repro table3`` would in a fresh checkout.  About
nine tenths of that is metered simulation, the rest is the build; the
runner *writes* the cache here.

The inputs are the paper's fixed kernel set, so the seed changes
nothing but the record.  Checks: every kernel's console output equals
its registered golden, the rendered tables equal the smoke-scale goldens
kept beside this file, and the reported errors equal the rendered
Table III.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from pathlib import Path

from common import (
    SCALE,
    SETUP_REPEATS,
    fresh_dir,
    import_timings,
    layer_metrics,
    median,
    peak_rss_mb,
)
from hostref import Timing
from tracer import span_cost_s

GOLDEN = Path(__file__).resolve().parent / "golden"
IMPORTS = ("repro.experiments.table1", "repro.experiments.table3")
MIN_WALLS = 3


def _reset(cache: Path) -> None:
    from repro.experiments.setup import reset_benches
    from repro.workloads.pipeline import clear_program_cache
    from repro.workloads.registry import clear_build_cache
    fresh_dir(cache)
    reset_benches()
    clear_build_cache()
    clear_program_cache()


def _check_outputs(run, scale, table1_text: str, table3) -> None:
    from repro.experiments.setup import get_bench
    from repro.experiments.workloads import kernel_set
    from repro.workloads import get_spec
    bench = get_bench(scale)
    bad = []
    kernels = kernel_set(scale)
    for name, abi, program in kernels:
        spec = get_spec(name.rsplit(":", 1)[0])
        sim = bench.measure(name, program, abi == "hard").sim
        if sim.console != spec.golden(scale):
            bad.append(name)
    run.check(f"{len(kernels)} kernel consoles match their goldens",
              not bad, f"mismatch: {bad}" if bad else "")
    table3_text = table3.render()
    for label, text in (("table1", table1_text), ("table3", table3_text)):
        golden = (GOLDEN / f"{label}_{SCALE}.txt").read_text(encoding="utf-8")
        run.check(f"{label} render equals the {SCALE} golden",
                  text == golden.rstrip("\n"))
    rows = {line.split("|")[0].strip(): line for line in
            table3_text.splitlines() if "|" in line}
    mean_row = [cell.strip() for cell in
                rows.get("Mean absolute error", "").split("|")]
    summary = table3.summary
    rendered = (f"{summary['energy'].mean_abs_percent:.2f} %",
                f"{summary['time'].mean_abs_percent:.2f} %")
    run.check("err_* equal the rendered Table III",
              tuple(mean_row[1:3]) == rendered,
              f"rendered {mean_row[1:3]} vs reported {rendered}")


def run_workload(run) -> None:
    from repro.experiments import table1, table3
    from repro.experiments.scale import get_scale
    from repro.experiments.setup import get_bench

    scale = get_scale(SCALE)
    cache = run.dir / "cache"
    os.environ["REPRO_CACHE_DIR"] = str(cache)

    # -- set-up: interpreter + import, then a cold bench construction,
    # each repeated for the median (untraced: the bench construction is
    # part of the timed iteration, which the traced run does trace) --
    repeats = 1 if run.trace else SETUP_REPEATS
    ref = run.ref
    imports = import_timings(IMPORTS, ref, repeats)
    builds = []
    for _ in range(repeats):
        _reset(cache)
        with ref.clock() as timing:
            get_bench(scale)
        builds.append(timing)
    run.take_counts("setup")
    run.metric("setup_s", median(t.ref_s for t in imports)
               + median(t.ref_s for t in builds), "s")
    run.note("setup.import_s", [round(t.ref_s, 4) for t in imports])
    run.note("setup.bench_s", [round(t.ref_s, 4) for t in builds])
    run.note("raw.setup_s", round(median(t.raw_s for t in imports)
                                  + median(t.raw_s for t in builds), 4))

    # -- timed: cold Table I + Table III, repeated for the run length --
    walls: list[float] = []
    raw_walls: list[float] = []
    traced_walls: list[float] = []
    phases: list[str] = []
    first = None
    mismatched: list[str] = []
    layer = None
    deadline = time.perf_counter() + run.seconds
    i = 0
    while True:
        traced = run.trace and i % 2 == 1
        _reset(cache)
        run.tracer.spans_on = traced
        # traced iterations are timed raw: the clock's probes would land
        # inside the spans
        with nullcontext(Timing()) if traced else ref.clock() as timing:
            start = time.perf_counter()
            t1 = table1.run(scale)
            t1_text = t1.render()
            t3 = table3.run(scale)
            wall = time.perf_counter() - start
        run.tracer.spans_on = False
        if traced:
            traced_walls.append(wall)
        else:
            raw_walls.append(timing.raw_s)
            walls.append(timing.ref_s)
        phase = f"iter{i}"
        counts = run.take_counts(phase)
        phases.append(phase)
        run.attempted += 1
        if first is None:
            first = (t1_text, t3.render())
            _check_outputs(run, scale, t1_text, t3)
            run.tracer.counts.clear()   # the checks re-read memoised runs
            retired = counts["vm.retired"]
            summary = t3.summary
        elif (t1_text, t3.render()) != first:
            mismatched.append(phase)
        if traced and layer is None:
            layer = (run.tracer.layer_summary(), counts, wall)
            run.tracer.dump(run.dir / "trace.json")
        i += 1
        # at least three untraced iterations, so that the median drops
        # one iteration the host slowed more than the clock could follow
        if (time.perf_counter() >= deadline and len(walls) >= MIN_WALLS
                and (not run.trace or traced_walls)):
            break
    run.check("renders repeat byte for byte across iterations",
              not mismatched, f"differing: {mismatched}")
    run.same_counts(phases)

    wall = median(walls)
    run.metric("wall_s", wall, "s")
    run.metric("work_per_s", retired / wall, "1/s")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    run.metric("ok_frac", 1.0 - run.failed / max(1, run.attempted), "ratio")
    run.note("iterations", len(walls))
    run.note("wall_s_all", [round(x, 4) for x in walls])
    run.note("raw.wall_s_all", [round(x, 4) for x in raw_walls])
    run.note("sim_mips", round(retired / median(raw_walls) / 1e6, 4))
    run.note("retired", retired)
    run.note("err_time_pct", summary["time"].mean_abs_percent)
    run.note("err_energy_pct", summary["energy"].mean_abs_percent)
    if layer is not None:
        layer_metrics(run, *layer, span_cost_s(run.tracer))
        run.metric("trace.overhead_pct",
                   100.0 * (median(traced_walls) / median(raw_walls)
                            - 1.0), "%")
