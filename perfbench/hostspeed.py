"""Host-speed correction of the benchmark's time metrics.

A shared host runs the same code at a speed that drifts by 20-50% over
seconds to minutes, as other tenants load the cores this one shares; the
process is not descheduled (its CPU time equals its wall time), it runs
slower.  The drift moves a fixed workload that touches neither the program
nor its inputs in step with the program.  So the runner times
:func:`reference`, a fixed mix of interpreter, small-array and
large-array NumPy work, right before and right after every timed job, and
reports the job's time in *reference-speed seconds*::

    corrected = measured * NOMINAL_REFERENCE_S / mean(reference before, after)

On a host exactly as fast as the one ``NOMINAL_REFERENCE_S`` was measured
on, corrected seconds are measured seconds.  The reference is part of the
benchmark, not of the program, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["NOMINAL_REFERENCE_S", "HostClock", "reference", "reference_seconds"]

#: median time of one :func:`reference` call on a 2-core Sapphire Rapids
#: KVM guest; it only sets the scale of corrected seconds
NOMINAL_REFERENCE_S = 0.006
#: reference calls per sample; a sample is their median
SAMPLE_CALLS = 3
#: a sample at most this old stands in for a new one before a call, so
#: back-to-back jobs share the sample between them
FRESH_S = 0.25

_SMALL = np.linspace(0.0, 1.0, 4096)
_LARGE = np.linspace(0.0, 1.0, 1 << 18)


def reference() -> float:
    """The fixed reference work: dict, tuple and sort work in the
    interpreter (about half its time), then element-wise NumPy work on a
    small and on a 2 MB array."""
    table: dict[tuple[int, int], float] = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
    ranked = sorted(table.items(), key=lambda kv: kv[1])
    acc = float(len(ranked))
    a = _SMALL
    for _ in range(40):
        b = np.sqrt(a * 1.0001 + 1.0)
        a = np.minimum(b, 1.0)
    acc += float(a.sum())
    b = np.sqrt(_LARGE * 1.0001 + 1.0)
    acc += float(np.sort(b[: 1 << 15]).sum() + b.sum())
    return acc


def reference_seconds(calls: int = SAMPLE_CALLS) -> float:
    """Median wall time of *calls* :func:`reference` calls."""
    values = []
    for _ in range(calls):
        t0 = time.perf_counter()
        reference()
        values.append(time.perf_counter() - t0)
    return statistics.median(values)


class HostClock:
    """Times calls in reference-speed seconds and keeps every reference
    sample it took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._taken = -float("inf")

    def sample(self) -> float:
        value = reference_seconds()
        self.samples.append(value)
        self._taken = time.perf_counter()
        return value

    def sample_before(self) -> float:
        """The last sample if it is at most ``FRESH_S`` old, else a new one."""
        if time.perf_counter() - self._taken <= FRESH_S:
            return self.samples[-1]
        return self.sample()

    def factor(self, before: float, after: float) -> float:
        """Multiplier from measured to reference-speed seconds for a call
        bracketed by reference samples *before* and *after*."""
        return NOMINAL_REFERENCE_S / ((before + after) / 2.0)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return ``(output, measured s, corrected s)``.
        The reference samples around the call are not part of either time."""
        before = self.sample_before()
        t0 = time.perf_counter()
        out = fn(*args)
        measured = time.perf_counter() - t0
        after = self.sample()
        return out, measured, measured * self.factor(before, after)
