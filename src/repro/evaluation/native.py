"""Native execution: really running generated versions, with threads.

The simulated target predicts times for paper-scale problems; this module
*actually executes* generated code versions on real arrays — sequentially
or with a worksharing thread pool that mirrors the OpenMP schedule the C
backend emits (static chunking of the outermost parallel loop).

Python threads share the GIL, so this is not about speed: it validates the
worksharing structure end-to-end (disjoint chunks compose to the correct
result for the parallelizable schedules) and provides honest wall-clock
measurements for small problem sizes.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.backend.pygen import compile_function, compile_worksharing
from repro.evaluation.measurements import Measurement, MeasurementProtocol
from repro.ir.nodes import Function

__all__ = ["NativeExecutor"]


@dataclass
class NativeExecutor:
    """Executes an IR function (a generated version) on real data.

    :param fn: the specialized version's IR (from
        :meth:`TransformationSkeleton.instantiate` + ``apply()``).
    :param threads: worksharing width; 1 executes sequentially.  For
        ``threads > 1`` the function must have a top-level parallel loop,
        split into OpenMP-static-style equal chunks on a thread pool.
    """

    fn: Function
    threads: int = 1

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.threads == 1:
            self._body = compile_function(self.fn)
            self._bounds = None
        else:
            self._bounds, self._body = compile_worksharing(self.fn)

    # ------------------------------------------------------------------

    def _chunks(self, arrays, scalars) -> list[tuple[int, int]]:
        assert self._bounds is not None
        lo, hi, step = self._bounds(arrays, scalars)
        total = max(0, -(-(hi - lo) // step))
        per = -(-total // self.threads)
        out = []
        for t in range(self.threads):
            c_lo = lo + t * per * step
            c_hi = min(hi, c_lo + per * step)
            if c_lo >= hi:
                break
            out.append((c_lo, c_hi))
        return out

    def run(self, arrays: dict[str, np.ndarray], scalars: dict[str, int]) -> float:
        """Execute once in place; returns the wall time in seconds."""
        t0 = _time.perf_counter()
        if self.threads == 1:
            self._body(arrays, scalars)
        else:
            chunks = self._chunks(arrays, scalars)
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                futures = [
                    pool.submit(self._body, arrays, scalars, lo, hi)
                    for lo, hi in chunks
                ]
                for f in futures:
                    f.result()
        return _time.perf_counter() - t0

    def measure(
        self,
        arrays: dict[str, np.ndarray],
        scalars: dict[str, int],
        protocol: MeasurementProtocol | None = None,
    ) -> Measurement:
        """Median-of-k wall-clock measurement; each repetition runs on a
        fresh copy of the inputs (the kernels mutate their arrays)."""
        protocol = protocol or MeasurementProtocol(repetitions=3)

        def sample() -> float:
            fresh = {k: v.copy() for k, v in arrays.items()}
            return max(self.run(fresh, scalars), 1e-9)

        return protocol.measure(sample)
