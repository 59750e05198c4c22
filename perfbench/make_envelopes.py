"""Regenerate ``envelopes.json``, the fixed ideal/nadir envelopes that the
benchmark's ``hv`` metric is scored against.

Run from the repository root::

    PYTHONPATH=src python3 -m perfbench.make_envelopes

Each envelope is the per-objective minimum and maximum over the union of
fronts found for its (kernel, machine, objective count) by a brute-force
grid sweep and by RS-GDE3 tunes with the seeds below.  The file is
committed and changes only when this script is re-run on purpose: a
later change to the program is scored against the same envelopes.
"""

from __future__ import annotations

import json

from repro.driver.compiler import TuningDriver
from repro.experiments import make_setup, run_brute_force

from perfbench.jobs import MACHINES, PAPER_KERNELS
from perfbench.quality import ENVELOPE_FILE, envelope_key

SEEDS = (0, 1, 2, 3)


def _bounds(points) -> dict:
    columns = list(zip(*points))
    return {"ideal": [min(c) for c in columns], "nadir": [max(c) for c in columns]}


def build() -> dict:
    out = {}
    for machine_name, machine in MACHINES.items():
        for kernel in PAPER_KERNELS:
            points = {2: [], 3: []}
            sweep = run_brute_force(make_setup(kernel, machine), seed=SEEDS[0])
            points[2] += [c.objectives for c in sweep.result.front]
            for seed in SEEDS:
                driver = TuningDriver(machine=machine, seed=seed)
                for m in (2, 3):
                    tuned = driver.tune_kernel(kernel, run_seed=seed, with_energy=m == 3)
                    points[m] += [c.objectives for c in tuned.result.front]
            for m, pts in points.items():
                out[envelope_key(kernel, machine_name, m)] = _bounds(pts)
    return out


if __name__ == "__main__":
    envelopes = build()
    ENVELOPE_FILE.write_text(json.dumps(envelopes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(envelopes)} envelopes to {ENVELOPE_FILE.name}")
