"""``dse-warm``: design-space exploration on a warm profile cache.

Set-up fills the profile cache for the ``table3`` preset and every
``pipe:*`` pipeline from empty (what ``repro profile warm`` does, and
what a user pays once).  Each timed iteration then does what fresh CLI
calls do on that warm cache, with the build memos cleared and a fresh
runner per call:

- ``repro dse --profile`` over the stock 36-config grid, and
- ``repro pipeline sweep`` for ``pipe:xfel`` and ``pipe:edges``;

together these give ``wall_s`` (about nine tenths build: kir codegen and
assembly, plus runner cache reads).  The iteration then streams a
10^6-config space (12,500 clocks x fpu x 8 window counts x 5 wait
states, front cap 64) over the ``table3`` pairs already built, serially
-- NFP batch pricing plus the DSE stream/Pareto reduction -- which gives
``work_per_s`` in configurations per second.

The seed shifts the streamed clock grid by a fraction of one step, so
each seed prices a different million configurations of equal size.
Checks: every iteration's text and json reports are byte-identical to
the first iteration's, and the streamed sweep reports exactly 10^6
configurations with fronts and knees that repeat.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from contextlib import nullcontext

from common import (
    SCALE,
    SETUP_REPEATS,
    import_timings,
    layer_metrics,
    median,
    peak_rss_mb,
)
from hostref import Timing
from tracer import span_cost_s

IMPORTS = ("repro.experiments.dse", "repro.experiments.pipeline")
PIPELINES = ("pipe:xfel", "pipe:edges")
NWINDOWS = (2, 3, 4, 6, 8, 12, 16, 24)
WAIT_STATES = (0, 1, 2, 3, 4)
STREAM_CONFIGS = 1_000_000


def million_space(seed: int):
    from repro.dse import DesignSpace
    phase = random.Random(seed).random()
    clocks = tuple(12.5 + (i + phase) * 75.0 / 12_500 for i in range(12_500))
    space = DesignSpace((("clock_mhz", clocks), ("fpu", (False, True)),
                         ("nwindows", NWINDOWS),
                         ("wait_states", WAIT_STATES)))
    assert space.size == STREAM_CONFIGS
    return space


def _clear_builds() -> None:
    from repro.workloads.pipeline import clear_program_cache
    from repro.workloads.registry import clear_build_cache
    clear_build_cache()
    clear_program_cache()


def run_workload(run) -> None:
    from repro.dse import sweep_streamed
    from repro.dse.report import StreamReport
    from repro.experiments import dse as dse_driver
    from repro.experiments import pipeline as pipeline_driver
    from repro.experiments.scale import get_scale
    from repro.experiments.setup import runner_from_env
    from repro.dse.engine import stream_profiles
    from repro.hw.config import HwConfig
    from repro.vm.config import CoreConfig
    from repro.workloads import select

    scale = get_scale(SCALE)
    cache = run.dir / "cache"
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    base = HwConfig(name="leon3", core=CoreConfig())
    space = million_space(run.seed)

    # -- set-up: interpreter + import, then the one cold profile fill --
    ref = run.ref
    imports = import_timings(IMPORTS, ref,
                             1 if run.trace else SETUP_REPEATS)
    run.tracer.spans_on = run.trace
    _clear_builds()
    # a traced set-up is timed raw: the clock's probes would land in spans
    with nullcontext(Timing()) if run.trace else ref.clock() as fill:
        start = time.perf_counter()
        specs = select("table3," + ",".join(PIPELINES), scale)
        filled = stream_profiles([spec.pair(scale) for spec in specs],
                                 [False, True],
                                 budget=scale.max_instructions,
                                 runner=runner_from_env(), base=base)
        fill_s = time.perf_counter() - start
    run.tracer.spans_on = False
    setup_counts = run.take_counts("setup")
    run.metric("setup_s", median(t.ref_s for t in imports) + fill.ref_s,
               "s")
    run.note("setup.import_s", [round(t.ref_s, 4) for t in imports])
    run.note("setup.fill_s", round(fill.ref_s, 4))
    run.note("raw.setup_s", round(median(t.raw_s for t in imports)
                                  + fill.raw_s, 4))
    run.note("setup.profiles", len(filled))
    run.note("setup.fill_mips",
             round(setup_counts["vm.retired"] / fill_s / 1e6, 4))

    # -- timed: CLI-equivalent grid + pipelines, then the streamed sweep --
    walls: list[float] = []
    streams: list[float] = []
    raw: dict[str, list[float]] = {"wall_s": [], "stream_s": []}
    traced_walls: list[float] = []
    phases: list[str] = []
    first = None
    mismatched: list[str] = []
    layer = None
    deadline = time.perf_counter() + run.seconds
    i = 0
    while True:
        traced = run.trace and i % 2 == 1
        # every iteration is the first `repro dse` on a profile-warm
        # cache: drop the sweep checkpoints the previous call left
        shutil.rmtree(cache / "runs", ignore_errors=True)
        _clear_builds()
        pairs = [spec.pair(scale) for spec in select("table3", scale)]
        run.tracer.spans_on = traced
        # traced iterations are timed raw: the clock's probes would land
        # inside the spans
        with nullcontext(Timing()) if traced else ref.clock() as cli:
            start = time.perf_counter()
            grid = dse_driver.run(scale, profile=True)
            grid_text = grid.render("text")
            pipe_texts = tuple(
                pipeline_driver.run(scale, pipeline=name).render("text")
                for name in PIPELINES)
            wall = time.perf_counter() - start
        with nullcontext(Timing()) if traced else ref.clock() as stream:
            start = time.perf_counter()
            summary = sweep_streamed(space, pairs,
                                     budget=scale.max_instructions,
                                     runner=runner_from_env(), base=base,
                                     front_cap=64, shards=1)
            stream_s = time.perf_counter() - start
        run.tracer.spans_on = False
        if traced:
            traced_walls.append(wall + stream_s)
        else:
            raw["wall_s"].append(cli.raw_s)
            raw["stream_s"].append(stream.raw_s)
            walls.append(cli.ref_s)
            streams.append(stream.ref_s)
        phase = f"iter{i}"
        counts = run.take_counts(phase)
        phases.append(phase)
        run.attempted += 2 + len(PIPELINES)
        outputs = (grid_text, grid.render("json"), pipe_texts,
                   StreamReport(summary, title="streamed").render("json"))
        run.tracer.counts.clear()   # the json renders are checks, not work
        run.check(f"{phase} streamed sweep priced 10^6 configs",
                  summary.configs == STREAM_CONFIGS,
                  f"configs={summary.configs}")
        if first is None:
            first = outputs
        elif outputs != first:
            mismatched.append(phase)
        if traced and layer is None:
            counts.update(setup_counts)
            layer = (run.tracer.layer_summary(), counts,
                     fill_s + wall + stream_s)
            run.tracer.dump(run.dir / "trace.json")
        i += 1
        if time.perf_counter() >= deadline and (
                not run.trace or traced_walls):
            break
    run.check("reports repeat byte for byte across iterations",
              not mismatched, f"differing: {mismatched}")
    run.same_counts(phases)

    wall = median(walls)
    stream_s = median(streams)
    run.metric("wall_s", wall, "s")
    run.metric("work_per_s", STREAM_CONFIGS / stream_s, "1/s")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    run.metric("ok_frac", 1.0 - run.failed / max(1, run.attempted), "ratio")
    run.note("iterations", len(walls))
    run.note("configs_per_s",
             round(STREAM_CONFIGS / median(raw["stream_s"]), 1))
    run.note("stream_s", [round(x, 4) for x in streams])
    run.note("wall_s_all", [round(x, 4) for x in walls])
    for name, values in raw.items():
        run.note(f"raw.{name}", [round(x, 4) for x in values])
    if layer is not None:
        layer_metrics(run, *layer, span_cost_s(run.tracer))
        run.metric("trace.overhead_pct",
                   100.0 * (median(traced_walls) / (median(raw["wall_s"])
                                                    + median(raw["stream_s"]))
                            - 1.0), "%")
