"""Host-speed reference clock: timings rescaled to a nominal host.

The benchmark runs on a few vCPUs of a shared host whose speed changes
under it.  A fixed computation has read 15.3 ms for half a second and
then 22-27 ms for the next, and a cold Table III has taken 9.8 s on
one hour and 13 s on another.  A busy process on the other vCPU does
not cause it; the host does.  Medians over a run remove short spikes,
but not a slow quarter of an hour, so the gated timings are not raw
wall seconds but *reference seconds*.

While a timed interval runs, an interval timer interrupts it every
``PERIOD_S`` and runs a fixed probe computation (``_probe``, ~3 ms).
The probe's duration is the host's speed at that moment.  The wall time
between two probes is rescaled by the mean of their two durations:

    reference seconds = sum over gaps of  gap x NOMINAL_S / probe time

and the probes' own time is left out.  ``NOMINAL_S`` is about the
probe's median duration inside a run on the 2-vCPU Xeon host this
benchmark was sized on, so a reference second is about one second
there.  The probe is frozen here, beside the benchmark, so a change to
the program cannot move it.  It mixes the two kinds of work the program
does: an interpreter loop shaped like the instruction-set simulator's
(register file, dict memory, branches, method calls) and small numpy
kernels shaped like batch pricing.

Each interval also reports its raw wall seconds (probes excluded), so
the report shows both.  The probes cost about 1.5 % of the interval;
runs that trace layers time their traced intervals without the clock.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: about the probe's median duration on the host this benchmark was
#: sized on
NOMINAL_S = 0.0035
#: wall seconds between probes inside a clocked interval
PERIOD_S = 0.25
_STEPS = 6_000
_VECTOR_REPEATS = 60


class _Core:
    """A toy register machine: the interpreter half of the probe."""

    def __init__(self) -> None:
        self.regs = [0] * 16
        self.mem: dict[int, int] = {}
        self.pc = 0

    def step(self, i: int) -> None:
        regs = self.regs
        op = i & 7
        rd, rs = i & 15, (i >> 4) & 15
        if op < 3:
            regs[rd] = (regs[rs] + i) & 0xFFFFFFFF
        elif op < 5:
            self.mem[(regs[rs] >> 2) & 1023] = regs[rd]
        elif op == 5:
            regs[rd] ^= self.mem.get((regs[rs] >> 2) & 1023, 0)
        elif regs[rs] & 1:
            self.pc += 2
        else:
            self.pc += 1


_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((10_000, 8))
_WEIGHTS = _RNG.random(8)


def _probe() -> float:
    """Run the fixed probe computation; return its wall seconds."""
    start = time.perf_counter()
    core = _Core()
    for i in range(_STEPS):
        core.step(i)
    acc = 0.0
    for _ in range(_VECTOR_REPEATS):
        acc += float(np.maximum(_MATRIX @ _WEIGHTS, _MATRIX[:, 0]).sum())
    elapsed = time.perf_counter() - start
    if core.pc < 0 or acc < 0:     # keeps the work observable
        raise AssertionError("probe computation went wrong")
    return elapsed


@dataclass
class Timing:
    """One clocked interval."""

    raw_s: float = 0.0     #: wall seconds, the probes' own time left out
    ref_s: float = 0.0     #: the same interval in reference seconds


class HostRef:
    """The reference clock of one benchmark process.

    It owns ``SIGALRM``: the program under test does not use it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._timing: Timing | None = None
        self._busy = False
        self._last_probe = 0.0
        self._gap_start = 0.0
        _probe()                   # warm the code paths and arrays
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _account(self) -> None:
        """Close the gap up to now with a fresh probe on its far side."""
        timing = self._timing
        now = time.perf_counter()
        self._busy = True
        probe = _probe()
        self._busy = False
        self.samples.append(probe)
        gap = now - self._gap_start
        timing.raw_s += gap
        timing.ref_s += gap * NOMINAL_S / ((self._last_probe + probe) / 2)
        self._last_probe = probe
        self._gap_start = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if self._timing is not None and not self._busy:
            self._account()

    @contextmanager
    def clock(self):
        """Time the ``with`` body; the yielded Timing is filled on exit."""
        if self._timing is not None:
            raise RuntimeError("clocked intervals do not nest")
        timing = Timing()
        self._last_probe = _probe()
        self.samples.append(self._last_probe)
        self._timing = timing
        self._gap_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._account()
            self._timing = None

    def summary(self) -> dict:
        """The probe durations, for the report."""
        ordered = sorted(self.samples)
        if not ordered:
            return {"probes": 0}
        return {"probes": len(ordered),
                "median_ms": round(ordered[len(ordered) // 2] * 1e3, 4),
                "min_ms": round(ordered[0] * 1e3, 4),
                "max_ms": round(ordered[-1] * 1e3, 4)}
