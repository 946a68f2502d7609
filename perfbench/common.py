"""Shared plumbing of the benchmark: environment, timing, provenance, output.

Every workload runs in one benchmark process (plus the server process in
``serve-open``), with the runner pinned to one worker and numpy's BLAS
pinned to one thread, so the busy processes never outnumber the two
vCPUs this benchmark was sized on.  All state the benchmark writes lives
under ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: experiment size of every workload (the paper's tables at smoke scale)
SCALE = "smoke"

#: pinned before numpy is imported, here and in every child process
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
RUN_ENV = {"REPRO_WORKERS": "1", "REPRO_CACHE": "on", **BLAS_ENV}

#: how many times a cheap set-up step is repeated for the setup_s median
SETUP_REPEATS = 3


def child_env(cache_dir: Path) -> dict:
    """Environment of a child process: pinned knobs, private cache."""
    env = dict(os.environ)
    env.update(RUN_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_CHAOS", None)
    return env


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending, non-empty list."""
    rank = max(1, -(-int(round(len(ordered) * q * 1000)) // 1000))
    return ordered[min(len(ordered), rank) - 1]


def fresh_dir(path: Path) -> Path:
    """``path``, emptied (the benchmark owns everything under OUT)."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def import_timings(modules: tuple[str, ...], ref,
                   repeats: int = SETUP_REPEATS) -> list:
    """Clocked timings of a fresh interpreter importing ``modules``.

    The interpreter-plus-import share of a user's set-up: each repeat
    starts ``python3``, imports the modules and exits, clocked by the
    host reference ``ref`` from the parent.  Repeats run one after
    another, never beside other work.
    """
    code = "; ".join(f"import {name}" for name in modules)
    env = child_env(OUT / "probe-cache")
    timings = []
    for _ in range(repeats):
        with ref.clock() as timing:
            subprocess.run([sys.executable, "-c", code], env=env,
                           check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        timings.append(timing)
    return timings


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` or of this process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int, workload: str) -> dict:
    """Where and on what a run was measured."""
    try:
        # only this checkout's own repository, never an enclosing one
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = None
    except (OSError, ValueError, subprocess.SubprocessError):
        sha = None
    import numpy
    from repro.runner import default_workers
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "runner_workers": default_workers(),
        "loadavg_before": list(os.getloadavg()),
    }


class Run:
    """One benchmark invocation: metrics, checks, counts and output."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 trace: bool, tracer):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = tracer
        self.dir = fresh_dir(OUT / workload)
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, object] = {}
        self.counts: dict[str, dict] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.provenance = provenance(seed, workload)
        # imported here, not at the top: hostref loads numpy, which must
        # come after run.py has pinned the BLAS threads
        from hostref import HostRef
        #: timings are reported in reference seconds (see hostref.py)
        self.ref = HostRef()

    # -- recording ------------------------------------------------------------

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value) -> None:
        """A figure printed in the report but not gated (no bound)."""
        self.notes[name] = value

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def take_counts(self, phase: str) -> Counter:
        """Move the tracer's counters into ``phase`` (exact work done)."""
        counts = Counter(self.tracer.counts)
        self.tracer.counts.clear()
        self.counts[phase] = dict(sorted(counts.items()))
        return counts

    def same_counts(self, phases: list[str]) -> None:
        """Repeated iterations must do identical work, count for count."""
        first = self.counts.get(phases[0]) if phases else None
        for phase in phases[1:]:
            if self.counts[phase] != first:
                self.check("counts repeat across iterations", False,
                           f"nondeterminism: {phase} did "
                           f"{self.counts[phase]} vs {phases[0]} {first}")
                return
        if phases:
            self.check("counts repeat across iterations", True)

    # -- output ---------------------------------------------------------------

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and bool(self.checks)

    def emit(self, selected: dict[str, str]) -> None:
        """Print the report, the detail line and the result line.

        ``selected`` maps each metric name the result line carries to its
        declared unit; a metric the run did not produce is an error.
        """
        self.provenance["loadavg_after"] = list(os.getloadavg())
        self.provenance["host_ref"] = self.ref.summary()
        for name, (value, unit) in sorted(self.metrics.items()):
            print(f"# {self.workload:<10} {name:<24} {value:>16.6g} {unit}")
        for name, value in sorted(self.notes.items()):
            print(f"# {self.workload:<10} {name:<24} {value}")
        for name, ok, detail in self.checks:
            mark = "ok  " if ok else "FAIL"
            print(f"# check {mark} {name}" + (f": {detail}" if detail
                                                else ""))
        print("# detail " + json.dumps({
            "provenance": self.provenance,
            "counts": self.counts,
            "notes": self.notes,
            "all_metrics": {k: v[0] for k, v in self.metrics.items()},
        }, sort_keys=True, default=str))
        metrics = {}
        for name, unit in selected.items():
            value, have_unit = self.metrics[name]
            if have_unit != unit:
                raise RuntimeError(f"metric {name} measured in {have_unit}, "
                                   f"declared in {unit}")
            metrics[name] = {"value": value, "unit": unit}
        print(json.dumps({"correct": self.correct,
                          "attempted": max(1, self.attempted),
                          "failed": self.failed,
                          "metrics": metrics}), flush=True)


def layer_metrics(run: Run, summary: dict, counts: Counter,
                  wall_s: float, span_cost_s: float) -> float:
    """The per-layer metrics shared by every workload's traced run.

    Layers every workload exercises are reported in seconds.  Layers
    only some workloads exercise are reported as a share of the traced
    wall time ``wall_s``, so an idle layer reads 0 % instead of a time
    that never changes.  Every layer's absolute self time is in the
    report either way, and so is the tracing overhead estimated from
    the span count and the measured cost of one span, ``span_cost_s``;
    that estimate, in percent, is returned.
    """
    self_s = summary["self_s"]
    inclusive = summary["inclusive_s"]

    def share(seconds: float) -> float:
        return 100.0 * seconds / wall_s

    vm_s = self_s.get("vm", 0.0)
    retired = counts.get("vm.retired", 0)
    run.metric("vm.self_s", vm_s, "s")
    run.metric("vm.retired", retired, "count")
    run.metric("vm.mips", retired / vm_s / 1e6 if vm_s else 0.0, "MIPS")
    run.metric("hw.self_pct", share(self_s.get("hw", 0.0)), "%")
    run.metric("nfp.calibrate_pct",
               share(inclusive.get("nfp.calibrate", 0.0)), "%")
    run.metric("asm.self_s", self_s.get("asm", 0.0), "s")
    run.metric("asm.programs", counts.get("asm.programs", 0), "count")
    run.metric("kir.self_s", self_s.get("kir", 0.0), "s")
    run.metric("workloads.self_s", self_s.get("workloads", 0.0), "s")
    run.metric("runner.get_s", inclusive.get("runner.get", 0.0), "s")
    run.metric("runner.put_s", inclusive.get("runner.put", 0.0), "s")
    lookups = counts.get("runner.lookups", 0)
    computed = counts.get("runner.computed", 0)
    run.metric("runner.hit_ratio",
               (lookups - computed) / lookups if lookups else 0.0, "ratio")
    run.metric("nfp.lower_pct", share(inclusive.get("nfp.lower", 0.0)), "%")
    run.metric("nfp.price_pct", share(inclusive.get("nfp.price", 0.0)), "%")
    run.metric("nfp.configs", counts.get("nfp.configs", 0), "count")
    render_s = inclusive.get("dse.render", 0.0)
    run.metric("dse.self_pct", share(self_s.get("dse", 0.0) - render_s), "%")
    run.metric("dse.render_pct", share(render_s), "%")
    run.metric("experiments.self_s", self_s.get("experiments", 0.0), "s")
    run.note("traced_wall_s", round(wall_s, 6))
    estimate = 100.0 * summary["spans"] * span_cost_s / wall_s
    run.note("trace.spans", summary["spans"])
    run.note("trace.overhead_est_pct", round(estimate, 4))
    run.note("layer_self_s", {k: round(v, 6) for k, v in sorted(
        self_s.items())})
    run.note("span_inclusive_s", {k: round(v, 6) for k, v in sorted(
        inclusive.items())})
    return estimate
