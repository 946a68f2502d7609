"""Layer spans and exact work counters, installed from outside the program.

The benchmark does not edit ``src/repro``.  Instead it wraps the public
functions at each layer boundary (the simulator's run loops, the board's
metered measurement, the assembler, kir codegen, the result cache, the
NFP lowering and pricing calls, the DSE sweep entry points and the
experiment drivers) with a small wrapper that

- always updates exact work counters (retired instructions, programs
  assembled, tasks computed, configurations priced) -- a counter costs
  one call frame, so it stays on in untraced runs too; and
- when spans are on, records a span (name, layer, start, end, parent,
  thread) and charges the layer its *self* time: the span's duration
  minus the time covered by its child spans on the same thread.

Spans stay in memory; :meth:`Tracer.layer_summary` reduces them and
:meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict

#: (module, attribute path, span name, layer) -- every boundary traced.
#: A span's self time goes to its layer; its inclusive time is kept per
#: span name (``nfp.calibrate``, ``runner.get`` ...) for the phases that
#: are reported whole.
TARGETS = (
    ("repro.vm.simulator", "Simulator.run", "vm.run", "vm"),
    ("repro.vm.simulator", "Simulator.run_metered", "vm.run_metered", "vm"),
    ("repro.vm.simulator", "Simulator.run_profiled", "vm.run_profiled",
     "vm"),
    ("repro.hw.board", "Board.measure_raw", "hw.measure_raw", "hw"),
    ("repro.nfp.calibration", "Calibrator.calibrate", "nfp.calibrate",
     "nfp"),
    ("repro.asm.assembler", "assemble", "asm.assemble", "asm"),
    ("repro.kir.codegen", "generate_assembly", "kir.generate_assembly",
     "kir"),
    ("repro.workloads.registry", "WorkloadSpec.program",
     "workloads.program", "workloads"),
    ("repro.workloads.pipeline", "PipelineWorkloadSpec.program",
     "workloads.program", "workloads"),
    ("repro.workloads.pipeline", "pipeline_pair", "workloads.pipeline_pair",
     "workloads"),
    ("repro.runner.pool", "ExperimentRunner.run_tasks", "runner.run_tasks",
     "runner"),
    ("repro.runner.tasks", "run_task", "runner.run_task", "runner"),
    ("repro.runner.cache", "ResultCache.get", "runner.get", "runner"),
    ("repro.runner.cache", "ResultCache.put", "runner.put", "runner"),
    ("repro.nfp.linear", "lower_profile", "nfp.lower", "nfp"),
    ("repro.nfp.linear", "BatchNfpEngine.evaluate", "nfp.price", "nfp"),
    ("repro.nfp.linear", "LinearNfpEngine.evaluate", "nfp.price", "nfp"),
    ("repro.nfp.linear", "cycle_dot", "nfp.price", "nfp"),
    ("repro.nfp.linear", "energy_dots", "nfp.price", "nfp"),
    ("repro.dse.engine", "sweep", "dse.sweep", "dse"),
    ("repro.dse.engine", "sweep_profiled", "dse.sweep", "dse"),
    ("repro.dse.engine", "sweep_checkpointed", "dse.sweep", "dse"),
    ("repro.dse.engine", "sweep_streamed", "dse.sweep", "dse"),
    ("repro.dse.engine", "stream_profiles", "dse.stream_profiles", "dse"),
    ("repro.dse.report", "SweepReport.render", "dse.render", "dse"),
    ("repro.dse.report", "StreamReport.render", "dse.render", "dse"),
    ("repro.experiments.setup", "get_bench", "experiments.get_bench",
     "experiments"),
    ("repro.experiments.table1", "run", "experiments.table1",
     "experiments"),
    ("repro.experiments.table3", "run", "experiments.table3",
     "experiments"),
    ("repro.experiments.dse", "run", "experiments.dse", "experiments"),
    ("repro.experiments.pipeline", "run", "experiments.pipeline",
     "experiments"),
)


def _count_result(counts: Counter, name: str, args, result) -> None:
    """The exact work counters, keyed by span name."""
    if name.startswith("vm.run"):
        counts["vm.runs"] += 1
        counts["vm.retired"] += result.retired
    elif name == "asm.assemble":
        counts["asm.programs"] += 1
    elif name == "runner.run_tasks":
        counts["runner.lookups"] += len(args[1])
    elif name == "runner.run_task":
        if getattr(args[0], "mode", None) != "shard":
            counts["runner.computed"] += 1
            counts[f"runner.computed.{args[0].mode}"] += 1
    elif name == "runner.get":
        counts["runner.disk_gets"] += 1
        counts["runner.disk_hits"] += result is not None
    elif name == "runner.put":
        counts["runner.puts"] += 1
    elif name == "nfp.price" and isinstance(result, list):
        counts["nfp.configs"] += len(result)
    elif name == "nfp.price" and hasattr(result, "true_time_s"):
        counts["nfp.configs"] += 1
    elif name == "nfp.lower":
        counts["nfp.lowered"] += 1


class Tracer:
    """Counters always; spans while :attr:`spans_on` is true."""

    def __init__(self) -> None:
        self.spans_on = False
        self.counts: Counter = Counter()
        #: (id, parent id, name, layer, start, end, child seconds, thread)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every :data:`TARGETS` boundary (once per process)."""
        for module_name, path, name, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else \
                getattr(module, attr)
            wrapper = self._wrap(original, name, layer)
            setattr(owner, attr, wrapper)
            if not owner_name:
                # rebind ``from module import f`` copies held elsewhere
                for other in list(sys.modules.values()):
                    if (other is None or other is module
                            or not getattr(other, "__name__", "")
                            .startswith("repro")):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)

    def _wrap(self, fn, name: str, layer: str):
        counts = self.counts
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.spans_on:
                result = fn(*args, **kwargs)
                _count_result(counts, name, args, result)
                return result
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                with self._lock:
                    self.spans.append((span_id, parent, name, layer, start,
                                       end, frame[1],
                                       threading.get_ident()))
            _count_result(counts, name, args, result)
            return result

        return wrapper

    # -- reduction ------------------------------------------------------------

    def layer_summary(self) -> dict:
        """Self seconds per layer, inclusive seconds per span name."""
        self_s: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        with self._lock:
            spans = list(self.spans)
        by_id = {span[0]: span for span in spans}
        for span_id, parent, name, layer, t0, t1, child, _ in spans:
            self_s[layer] += (t1 - t0) - child
            # inclusive per name: skip spans nested in a same-name span
            ancestor = parent
            nested = False
            while ancestor is not None:
                above = by_id.get(ancestor)
                if above is None:
                    break
                if above[2] == name:
                    nested = True
                    break
                ancestor = above[1]
            if not nested:
                inclusive[name] += t1 - t0
        return {"self_s": dict(self_s), "inclusive_s": dict(inclusive),
                "spans": len(spans)}

    def dump(self, path) -> None:
        """Chrome trace-event JSON of the recorded spans."""
        with self._lock:
            spans = list(self.spans)
        origin = min((span[4] for span in spans), default=0.0)
        events = [{"name": name, "cat": layer, "ph": "X",
                   "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                   "pid": 0, "tid": tid,
                   "args": {"id": span_id, "parent": parent}}
                  for span_id, parent, name, layer, t0, t1, _, tid in spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


def span_cost_s(tracer: Tracer, calls: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one (median of 5)."""
    def noop(*_args):
        return None

    wrapped = tracer._wrap(noop, "probe", "probe")
    saved = tracer.spans_on, len(tracer.spans)
    costs = []
    try:
        for _ in range(5):
            tracer.spans_on = False
            start = time.perf_counter()
            for _ in range(calls):
                noop(None)
            plain = time.perf_counter() - start
            tracer.spans_on = True
            start = time.perf_counter()
            for _ in range(calls):
                wrapped(None)
            costs.append((time.perf_counter() - start - plain) / calls)
    finally:
        tracer.spans_on = saved[0]
        with tracer._lock:
            del tracer.spans[saved[1]:]
    costs.sort()
    return costs[len(costs) // 2]
