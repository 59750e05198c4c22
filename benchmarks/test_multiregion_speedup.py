"""Cross-region scheduler vs serial per-region loop on a 2-region kernel.

PR 4's tentpole claim: fusing every region's generation batch into one
shared evaluation session must beat the serial per-region lock-step loop
by at least 2x at 8 workers on jacobi-2d's two spatial regions — while
fronts, per-region ``E`` and ``program_runs`` stay bit-identical to the
``workers=1`` lock-step reference.

Each configuration carries a fixed measurement overhead (the generate +
compile + run latency of a real evaluation pipeline, slept by the
simulated target with the GIL released), so worker scaling is what the
wall-clock actually measures.

The run emits ``BENCH_multiregion.json`` (wall seconds and speedups for
the lock-step baseline, the fused barrier scheduler and the bounded-lag
pipeline) which CI uploads as an artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.driver.multiregion import MultiRegionTuner
from repro.evaluation.measurements import MeasurementProtocol
from repro.frontend.kernels import get_kernel
from repro.machine import WESTMERE
from repro.optimizer.gde3 import GDE3Settings
from repro.optimizer.rsgde3 import RSGDE3Settings
from tests.oracles import run_lockstep

from conftest import print_banner

WORKERS = 8
OVERHEAD_S = 0.003
ARTIFACT = Path("BENCH_multiregion.json")

#: patience > max_generations pins the run at exactly 6 generations per
#: region, so baseline and scheduler time identical amounts of work
SETTINGS = RSGDE3Settings(
    gde3=GDE3Settings(population_size=16), max_generations=6, patience=100
)


def _tuner(**kw) -> MultiRegionTuner:
    k = get_kernel("jacobi2d")
    return MultiRegionTuner(
        function=k.function,
        sizes={"N": 500, "T": 5},
        machine=WESTMERE,
        settings=SETTINGS,
        seed=11,
        protocol=MeasurementProtocol(overhead_s=OVERHEAD_S),
        **kw,
    )


def _timed(run):
    t0 = time.perf_counter()
    result = run()
    return time.perf_counter() - t0, result


def _signature(result):
    return (
        [tuple(c.objectives for c in r.front) for r in result.results],
        [r.evaluations for r in result.results],
        result.program_runs,
        result.generations,
    )


def test_fused_scheduler_beats_serial_lockstep():
    lockstep_wall, lockstep = _timed(lambda: run_lockstep(_tuner(), seed=3))
    serial_wall, serial = _timed(lambda: _tuner(workers=1).run(seed=3))
    fused_wall, fused = _timed(lambda: _tuner(workers=WORKERS).run(seed=3))
    piped_wall, piped = _timed(
        lambda: _tuner(workers=WORKERS, pipeline=True).run(seed=3)
    )

    speedup = lockstep_wall / fused_wall
    piped_speedup = lockstep_wall / piped_wall

    print_banner(
        f"Cross-region scheduling (jacobi-2d, 2 regions, {WORKERS} workers, "
        f"{OVERHEAD_S * 1e3:.0f} ms/config)"
    )
    print(f"{'lock-step serial':>22}: {lockstep_wall:7.3f} s")
    print(f"{'fused workers=1':>22}: {serial_wall:7.3f} s")
    print(f"{'fused workers=8':>22}: {fused_wall:7.3f} s  ({speedup:.2f}x)")
    print(f"{'pipelined workers=8':>22}: {piped_wall:7.3f} s  ({piped_speedup:.2f}x)")

    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "multiregion_speedup",
                "kernel": "jacobi2d",
                "regions": len(lockstep.results),
                "workers": WORKERS,
                "overhead_s": OVERHEAD_S,
                "program_runs": lockstep.program_runs,
                "wall_s": {
                    "lockstep": lockstep_wall,
                    "fused-1": serial_wall,
                    f"fused-{WORKERS}": fused_wall,
                    f"pipelined-{WORKERS}": piped_wall,
                },
                "fused_speedup": speedup,
                "pipelined_speedup": piped_speedup,
                "engine": fused.engine_stats.as_dict(),
            },
            indent=2,
        )
        + "\n"
    )

    # correctness before throughput: every scheduling shape must agree
    # with the workers=1 lock-step reference bit-for-bit
    reference = _signature(lockstep)
    assert _signature(serial) == reference
    assert _signature(fused) == reference
    assert _signature(piped) == reference

    # the acceptance bar: 8 shared workers over 2 regions' batches must
    # halve the wall-clock (observed ~4-6x; 2x leaves CI slack)
    assert speedup >= 2.0, (
        f"fused-{WORKERS} only {speedup:.2f}x over serial lock-step"
    )
