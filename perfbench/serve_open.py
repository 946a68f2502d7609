"""``serve-open``: open-loop traffic against ``repro serve``.

Set-up boots ``repro serve --scale smoke`` on its own empty cache and
prices one request per (workload, build) in the mix until every one
answers from the hot tier: the cold profile fill a serving user pays
once.  Then two timed phases offer traffic open-loop over two keep-alive
connections from this one process:

1. ``/v1/price`` at a fixed 200 requests/s, drawn from a seeded mix of
   (workload, axes) over the ``table3`` smoke suite plus ``pipe:xfel``,
   with a stock-grid ``/v1/sweep`` (json) falling due every few seconds;
   the sweeps compete with pricing for the server's interpreter lock.
2. A stepped ramp of the price rate: a saturation step measures the
   completion rate ``C`` with both connections always busy, then steps
   at falling fractions of ``C`` until one keeps the price p99 within
   50 ms with no growing backlog.  That offered rate is the highest
   sustainable rate.

Every latency counts from the request's due time.  Checks: each
``/v1/sweep`` body is byte-identical to the in-process ``repro dse
--profile --format json`` driver output, every priced body equals an
in-process evaluation of the same request, identical requests get
identical bodies, and the generator never fell behind its schedule.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    ROOT,
    SCALE,
    SETUP_REPEATS,
    child_env,
    fresh_dir,
    median,
    nearest_rank,
    peak_rss_mb,
)
from loadgen import Connection, Request, run_phase

#: keep-alive connections: two, but never more than there are CPUs
CONNECTIONS = min(2, os.cpu_count() or 1)
PRICE_RATE = 200.0
#: phase 1's share of the run length; the ramp takes the rest
PHASE1_SHARE = 0.5
SWEEP_EVERY_S = 2.5
SWEEP_BODY = json.dumps({"format": "json"}).encode()
P99_LIMIT_S = 0.050
#: the generator fell behind if its own wake-ups ran this late (p99);
#: such a phase is measured again, and a run that cannot is invalid
LATE_LIMIT_S = 0.010
PHASE_ATTEMPTS = 2
#: steps of 5 % near the top: a coarser ramp makes the reported rate jump
#: between runs by the width of one step
RAMP_FRACTIONS = (0.95, 0.9, 0.85, 0.8, 0.7, 0.5)
MIX_WORKLOADS = ("table3", "pipe:xfel")
NWINDOWS = (2, 3, 4, 6, 8, 12, 16, 24)
DISTINCT_REQUESTS = 256
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class InvalidRun(RuntimeError):
    """The measurement itself is not trustworthy (not a program fault)."""


def _workload_names(scale) -> list[str]:
    from repro.workloads import select as select_specs
    names = []
    for pattern in MIX_WORKLOADS:
        names += [spec.name for spec in select_specs(pattern, scale)]
    return names


def price_pool(seed: int, workloads: list[str]) -> list[dict]:
    """The seeded pool of distinct price payloads the schedule draws on."""
    rng = random.Random(seed)
    pool = []
    for i in range(DISTINCT_REQUESTS):
        pool.append({"workload": workloads[i % len(workloads)], "axes": {
            "clock_mhz": round(rng.uniform(12.5, 87.5), 3),
            "fpu": rng.random() < 0.5,
            "nwindows": rng.choice(NWINDOWS),
            "wait_states": rng.randrange(5),
        }})
    rng.shuffle(pool)
    return pool


def price_schedule(rng: random.Random, pool: list[dict], rate: float,
                   duration_s: float, sweep_every_s: float | None = None
                   ) -> list[Request]:
    requests = []
    n = int(rate * duration_s)
    for i in range(n):
        index = rng.randrange(len(pool))
        requests.append(Request(
            due_s=i / rate, kind="price",
            body=json.dumps(pool[index]).encode(), key=index))
    if sweep_every_s:
        due = sweep_every_s / 2
        while due < duration_s:
            requests.append(Request(due_s=due, kind="sweep",
                                    body=SWEEP_BODY, key="sweep"))
            due += sweep_every_s
    requests.sort(key=lambda request: request.due_s)
    return requests


# -- the server process -------------------------------------------------------

def boot(cache: Path, trace_out: Path | None,
         latency_window: int) -> tuple[subprocess.Popen, int, float]:
    """Start the server; return (process, port, seconds to listening).

    ``latency_window`` sizes the server's ``/v1/stats`` latency sample
    window, so that at the end of phase 1 it holds phase-1 requests
    only, not the slow cold fills of the warm-up.
    """
    if trace_out is None:
        command = [sys.executable, "-m", "repro"]
    else:
        command = [sys.executable,
                   str(Path(__file__).resolve().parent / "serve_traced.py"),
                   str(trace_out)]
    command += ["serve", "--scale", SCALE, "--host", "127.0.0.1",
                "--port", "0"]
    start = time.perf_counter()
    env = child_env(cache)
    env["REPRO_SERVER_LATENCY_WINDOW"] = str(latency_window)
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
    except BaseException:
        stop(proc)
        raise
    port = int(line.rsplit(":", 1)[1])
    return proc, port, time.perf_counter() - start


def stop(proc: subprocess.Popen) -> int:
    """SIGTERM, wait for the graceful drain; kill if it never ends."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return code


# -- the phases ----------------------------------------------------------------

def _price_latencies(phase) -> tuple[list[float], int]:
    ok = sorted(o.latency_s for o in phase.outcomes
                if o.request.kind == "price" and o.status == 200)
    bad = sum(1 for o in phase.outcomes
              if o.request.kind == "price" and o.status != 200)
    return ok, bad


def _step_passes(phase) -> tuple[bool, float]:
    latencies, bad = _price_latencies(phase)
    if not latencies:
        return False, float("inf")
    # a failed or unsent request misses the latency limit
    misses = bad + phase.unsent
    ordered = latencies + [float("inf")] * misses
    p99 = nearest_rank(ordered, 0.99)
    return (p99 <= P99_LIMIT_S and phase.unsent <= CONNECTIONS), p99


async def _timed_phase(conns, schedule, duration_s):
    """A latency-measuring phase, measured again if the generator lagged.

    Saturation steps are exempt: there the queue is meant to grow, and
    the dispatcher's own lag changes nothing.
    """
    for _ in range(PHASE_ATTEMPTS):
        phase = await run_phase(conns, schedule, duration_s)
        lateness = sorted(phase.dispatch_late_s)
        if not lateness or nearest_rank(lateness, 0.99) <= LATE_LIMIT_S:
            return phase
    raise InvalidRun(f"generator fell behind: dispatch p99 "
                     f"{nearest_rank(lateness, 0.99) * 1000:.1f} ms > "
                     f"{LATE_LIMIT_S * 1000:.0f} ms in "
                     f"{PHASE_ATTEMPTS} attempts")


async def _traffic(port: int, pool: list[dict], rng: random.Random,
                   seconds: float) -> dict:
    conns = [Connection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    phases = {}
    try:
        phase1_s = PHASE1_SHARE * seconds
        step_s = max(1.5, 0.125 * seconds)
        phases["steady"] = await _timed_phase(conns, price_schedule(
            rng, pool, PRICE_RATE, phase1_s, SWEEP_EVERY_S), phase1_s)
        status, body = await conns[0].request("GET", "/v1/stats")
        stats = json.loads(body) if status == 200 else {}
        # saturation: offer far beyond what two connections can carry
        saturate = await run_phase(conns, price_schedule(
            rng, pool, 4000.0, step_s), step_s)
        phases["saturate"] = saturate
        done, _ = _price_latencies(saturate)
        capacity = len(done) / step_s
        steps = []
        best = None
        for fraction in RAMP_FRACTIONS:
            rate = fraction * capacity
            phase = await _timed_phase(conns, price_schedule(
                rng, pool, rate, step_s), step_s)
            phases[f"ramp{fraction}"] = phase
            ok, p99 = _step_passes(phase)
            steps.append((round(rate, 1), round(p99 * 1000, 3), ok))
            if ok:
                best = rate
                break
    finally:
        for conn in conns:
            await conn.close()
    return {"phases": phases, "stats": stats, "capacity": capacity,
            "steps": steps, "max_rate": best}


# -- checks --------------------------------------------------------------------

def _check_bodies(run, scale, cache: Path, phases: dict,
                  pool: list[dict]) -> None:
    """Served bodies against in-process evaluation of the same requests."""
    from repro.dse.engine import config_area_les, stream_profiles
    from repro.experiments import dse as dse_driver
    from repro.experiments.setup import runner_from_env
    from repro.hw.config import HwConfig
    from repro.server.batching import price_batch
    from repro.server.schemas import price_request
    from repro.vm.config import CoreConfig
    from repro.workloads import select as select_specs

    outcomes = [o for phase in phases.values() for o in phase.outcomes
                if o.status == 200]
    by_key: dict = {}
    for outcome in outcomes:
        by_key.setdefault(outcome.request.key, set()).add(outcome.body)
    run.check("identical requests got identical bodies",
              all(len(bodies) == 1 for bodies in by_key.values()),
              f"{sum(len(b) > 1 for b in by_key.values())} keys differ")

    os.environ["REPRO_CACHE_DIR"] = str(cache)
    shutil.rmtree(cache / "runs", ignore_errors=True)
    sweeps = by_key.get("sweep", set())
    served = sum(1 for o in outcomes if o.request.kind == "sweep")
    reference = dse_driver.run(scale, profile=True).render("json")
    run.check(f"{served} /v1/sweep bodies equal the in-process "
              f"dse --profile --format json",
              bool(sweeps) and sweeps == {reference.encode("utf-8")})

    base = HwConfig(name="leon3", core=CoreConfig())
    runner = runner_from_env()
    vectors: dict = {}
    wrong = []
    checked = 0
    for key, bodies in sorted((k, b) for k, b in by_key.items()
                              if k != "sweep"):
        config, workload, _ = price_request(pool[key], base)
        fpu = config.hw.core.has_fpu
        build = "float" if fpu else "fixed"
        if (workload, build) not in vectors:
            spec = select_specs(workload, scale)[0]
            vectors[(workload, build)] = stream_profiles(
                [spec.pair(scale)], [fpu], budget=scale.max_instructions,
                runner=runner, base=base)[(spec.name, build)]
        nfp = price_batch([(config.hw, vectors[(workload, build)])])[0]
        served = json.loads(next(iter(bodies)))
        expected = (nfp.true_time_s, nfp.true_energy_j, nfp.cycles,
                    nfp.retired, config_area_les(config))
        got = (served["time_s"], served["energy_j"], served["cycles"],
               served["retired"], served["area_les"])
        checked += 1
        if got != expected:
            wrong.append(key)
    run.check(f"{checked} distinct priced bodies equal in-process pricing",
              checked > 0 and not wrong, f"differing keys: {wrong[:5]}")


# -- the workload --------------------------------------------------------------

def run_workload(run) -> None:
    from repro.experiments.scale import get_scale
    scale = get_scale(SCALE)
    workloads = _workload_names(scale)
    pool = price_pool(run.seed, workloads)
    rng = random.Random(run.seed + 1)
    window = int(PRICE_RATE * PHASE1_SHARE * run.seconds) - 1

    # -- set-up: boot (repeated for the median), then the cold fill.
    # These are timed in raw seconds: the work runs in the server, where
    # the host reference's probes (hostref.py) cannot run --
    boots = []
    for i in range(0 if run.trace else SETUP_REPEATS - 1):
        proc, _, boot_s = boot(fresh_dir(run.dir / f"probe{i}"), None,
                               window)
        stop(proc)
        boots.append(boot_s)
    cache = fresh_dir(run.dir / "cache")
    trace_out = run.dir / "server-trace.json" if run.trace else None
    proc, port, boot_s = boot(cache, trace_out, window)
    boots.append(boot_s)
    try:
        start = time.perf_counter()
        warm_keys = sorted({(w, fpu) for w in workloads
                            for fpu in (False, True)})
        profiles = asyncio.run(_warm(port, warm_keys))
        fill_s = time.perf_counter() - start
        run.counts["setup"] = {f"server.profiles.{key}": profiles[key]
                               for key in ("hot", "misses", "fills")}
        run.metric("setup_s", median(boots) + fill_s, "s")
        run.note("setup.boot_s", [round(x, 4) for x in boots])
        run.note("setup.fill_s", round(fill_s, 4))

        traffic = asyncio.run(_traffic(port, pool, rng, run.seconds))
        rss = peak_rss_mb(proc.pid)
    finally:
        code = stop(proc)
    run.check("server drained and exited 0", code == 0, f"exit {code}")
    phases = traffic["phases"]

    lateness = sorted(x for name, phase in phases.items()
                      if name != "saturate" for x in phase.dispatch_late_s)
    late_p99 = nearest_rank(lateness, 0.99)

    steady = phases["steady"]
    latencies, bad = _price_latencies(steady)
    sweeps = sorted(o.latency_s for o in steady.outcomes
                    if o.request.kind == "sweep" and o.status == 200)
    sent = sum(len(phase.outcomes) for phase in phases.values())
    failed = sum(1 for phase in phases.values() for o in phase.outcomes
                 if o.status != 200)
    run.attempted += sent
    run.failed += failed
    if traffic["max_rate"] is None:
        run.check("a ramp step met the p99 limit", False,
                  f"steps {traffic['steps']}")
    _check_bodies(run, scale, cache, phases, pool)

    run.metric("wall_s", median(latencies), "s")
    run.metric("work_per_s", traffic["max_rate"] or 0.0, "1/s")
    run.metric("peak_rss_mb", rss, "MB")
    run.metric("ok_frac", 1.0 - failed / max(1, sent), "ratio")
    run.note("price_p50_ms", round(median(latencies) * 1000, 4))
    price_p99 = nearest_rank(latencies + [float("inf")] * bad, 0.99)
    run.note("price_p99_ms", round(price_p99 * 1000, 4))
    run.note("price_samples", len(latencies) + bad)
    run.note("sweep_p50_ms", round(median(sweeps) * 1000, 2)
             if sweeps else None)
    run.note("sweep_samples", len(sweeps))
    run.note("max_rate_per_s", round(traffic["max_rate"] or 0.0, 2))
    run.note("capacity_per_s", round(traffic["capacity"], 2))
    run.note("ramp_steps", traffic["steps"])
    run.note("fail_frac", failed / max(1, sent))
    run.note("loadgen.late_p99_ms", round(late_p99 * 1000, 4))
    # phase 1 runs a fixed schedule, so its counts must repeat exactly;
    # the ramp's request counts follow the measured capacity
    run.counts["steady"] = {
        "price": len(latencies) + bad,
        "sweep": sum(1 for o in steady.outcomes
                     if o.request.kind == "sweep"),
        "unsent": steady.unsent,
    }
    run.counts["traffic"] = {
        "requests.sent": sent,
        "requests.completed": sent - failed,
        "requests.unsent": sum(p.unsent for p in phases.values()),
    }

    if run.trace:
        _layer_metrics(run, traffic["stats"], trace_out, late_p99,
                       median(latencies), price_p99)


async def _warm(port: int, keys: list[tuple[str, bool]]) -> dict:
    """Price each (workload, build) until it answers from the hot tier.

    Returns the server's profile counters after the warm-up.
    """
    conn = Connection("127.0.0.1", port)
    try:
        for workload, fpu in keys:
            body = json.dumps({"workload": workload,
                               "axes": {"fpu": fpu}}).encode()
            status, data = await conn.request("POST", "/v1/price", body)
            if status != 200:
                raise RuntimeError(f"warm-up of {workload} failed: "
                                   f"{status} {data[:200]!r}")
        status, data = await conn.request("GET", "/v1/stats")
        profiles = json.loads(data)["profiles"] if status == 200 else {}
        if profiles.get("hot") != len(keys):
            raise RuntimeError(f"{profiles.get('hot')} profiles hot after "
                               f"warm-up, expected {len(keys)}")
        return profiles
    finally:
        await conn.close()


def _layer_metrics(run, stats: dict, trace_out: Path, late_p99: float,
                   price_p50: float, price_p99: float) -> None:
    from collections import Counter

    from common import layer_metrics
    data = json.loads(trace_out.read_text(encoding="utf-8"))
    estimate = layer_metrics(run, data["summary"], Counter(data["counts"]),
                             data["wall_s"], data["span_cost_s"])
    latency = (stats.get("by_endpoint", {}).get("/v1/price", {})
               .get("latency") or {})
    batching = stats.get("batching", {})
    # server-side latency as a share of what the client saw from the
    # due time: the rest is transport and waiting for a connection
    run.metric("server.p50_pct",
               latency.get("p50_ms", 0.0) / 10.0 / price_p50, "%")
    run.metric("server.p99_pct",
               latency.get("p99_ms", 0.0) / 10.0 / price_p99, "%")
    run.metric("server.batch_mean", batching.get("mean_batch") or 0.0,
               "count")
    run.metric("server.fills", stats.get("profiles", {}).get("fills", 0),
               "count")
    run.metric("loadgen.late_pct", 100.0 * late_p99 / LATE_LIMIT_S, "%")
    run.note("server.p50_ms", latency.get("p50_ms"))
    run.note("server.p99_ms", latency.get("p99_ms"))
    # the server process cannot run untraced beside itself, so its
    # overhead is the measured cost of one span times the spans it made
    run.metric("trace.overhead_pct", estimate, "%")
