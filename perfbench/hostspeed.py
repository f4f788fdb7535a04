"""How fast the host runs right now, from a fixed reference loop.

On a VM that shares its physical cores with other tenants, the same
single-threaded work takes 10 to 25 % more or less CPU time from one second
to the next.  To cancel that drift, the runner interleaves a fixed reference
loop with the commands it measures: a profiling timer interrupts the process
every ``PERIOD_S`` CPU seconds, and the handler runs a few units of the loop.
The handler's own CPU time is taken out of the command's, and the command's
time is scaled by how fast the loop ran during it.  A change to nbqc is not
cancelled, because the loop calls nothing from nbqc.

The loop mixes the two kinds of work nbqc's hot paths do: numpy gathers,
butterflies and normalisation on (edges x q) arrays, like the decoder, and
interpreter work on small dicts, tuples and ints, like walk enumeration,
lifting and the optimizers.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

# CPU seconds of one reference unit on the host the benchmark was defined
# on: a 2-vCPU x86-64 VM, Python 3.11.7, numpy 2.4.6.  Scaled times read as
# CPU seconds on that host.
REFERENCE_UNIT_S = 0.0053
# The handler runs UNITS_PER_TICK units every PERIOD_S CPU seconds: about
# 15 % of the CPU time, in slices short enough to follow the host's drift.
PERIOD_S = 0.1
UNITS_PER_TICK = 3

_ROWS, _Q = 1024, 16
_START = np.linspace(0.0, 1.0, _ROWS * _Q).reshape(_ROWS, _Q)
# fixed gathers, like the decoder's edge permutations
_ROW_ORDER = (np.arange(_ROWS) * 389) % _ROWS
_COL_ORDER = (np.arange(_ROWS * _Q).reshape(_ROWS, _Q) * 7
              + np.arange(_ROWS)[:, None]) % _Q


def reference_unit() -> float:
    """One fixed unit of work; returns a checksum so it cannot be skipped."""
    x = _START
    for _ in range(6):
        y = np.take_along_axis(x[_ROW_ORDER], _COL_ORDER, axis=1)
        h = 1
        while h < _Q:  # Walsh-Hadamard butterflies
            pairs = y.reshape(_ROWS, _Q // (2 * h), 2, h)
            y = np.stack([pairs[..., 0, :] + pairs[..., 1, :],
                          pairs[..., 0, :] - pairs[..., 1, :]],
                         axis=-2).reshape(_ROWS, _Q)
            h *= 2
        np.clip(y, 0.0, None, out=y)
        x = y / (y.sum(axis=1, keepdims=True) + 1.0)
    table: dict[tuple[int, int], int] = {}
    for i in range(6000):
        key = (i % 37, (i * 7919) % 53)
        table[key] = table.get(key, 0) + (i ^ key[1])
    return float(x[0, 0]) + sum(table.values())


class HostSpeed:
    """Runs the reference loop from a profiling-timer signal.

    While :meth:`sampling` is active, every ``PERIOD_S`` CPU seconds of
    the process the handler runs ``UNITS_PER_TICK`` reference units and adds
    their CPU time to :attr:`cpu_s` and their number to :attr:`units`.  Read
    both before and after a stretch of work to get that stretch's share.
    """

    def __init__(self):
        self.cpu_s = 0.0
        self.units = 0

    def _tick(self, signum, frame) -> None:
        start = time.process_time()
        for _ in range(UNITS_PER_TICK):
            reference_unit()
        self.cpu_s += time.process_time() - start
        self.units += UNITS_PER_TICK

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def snapshot(self) -> tuple[float, int]:
        return self.cpu_s, self.units


def scale(cpu_s: float, units: int, fallback: float = 1.0) -> float:
    """Factor that turns CPU seconds into reference seconds, from the
    reference units run alongside them; ``fallback`` when none ran."""
    if units == 0:
        return fallback
    return REFERENCE_UNIT_S * units / cpu_s
