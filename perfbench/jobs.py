"""The three workloads: job lists derived from the workload seed, the timed
body of each job, and the output checks that run after it, untimed.

Every workload is a closed loop: the runner starts a job only after the
previous one has returned, so exactly one job is in flight at a time.
"""

from __future__ import annotations

import hashlib
import shutil
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.driver.compiler import TuningDriver
from repro.experiments import make_setup, run_brute_force
from repro.machine import BARCELONA, WESTMERE

from perfbench.quality import envelope, envelope_key, front_problem, normalized_hv

__all__ = ["WORKLOADS", "Job", "JobResult", "make_workload", "passes_for"]

MACHINES = {"westmere": WESTMERE, "barcelona": BARCELONA}
PAPER_KERNELS = ("mm", "dsyrk", "jacobi2d", "stencil3d", "nbody")

#: run budget, in seconds, that one pass over a workload's job list stands
#: for.  It fixes how many passes a run of ``--seconds`` makes, so the
#: work of a run depends only on the workload, the seed and ``--seconds``,
#: never on how fast the code is.  Measured on a 2-core x86 container: a
#: ``tune`` pass (20 jobs) takes ~11 s; a ``tune-warm`` pass (40 jobs)
#: 8-12 s, after ~20 s of set-up that fills its cache once; a ``grid``
#: pass (10 sweeps) ~7.5 s.
PASS_BUDGET_S = {"tune": 12.0, "tune-warm": 12.0, "grid": 8.0}

WORKLOADS = tuple(PASS_BUDGET_S)


def passes_for(workload: str, seconds: float) -> int:
    """Passes over the job list that a run of *seconds* makes."""
    return max(1, round(seconds / PASS_BUDGET_S[workload]))


def job_seed(seed: int, *parts: object) -> int:
    """A 31-bit job seed derived from the workload seed and the job's
    identity (stable across processes and Python versions)."""
    h = hashlib.blake2b(repr((int(seed),) + parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") & 0x7FFFFFFF


@dataclass(frozen=True)
class Job:
    kernel: str
    machine: str
    seed: int
    energy: bool = False

    @property
    def label(self) -> str:
        mode = "/energy" if self.energy else ""
        return f"{self.kernel}/{self.machine}{mode}/s{self.seed}"

    @property
    def objectives(self) -> int:
        return 3 if self.energy else 2


@dataclass
class JobResult:
    """What the checks and the metrics need from one job's output."""

    #: sorted (values, objectives) pairs
    front: list[tuple[tuple, tuple[float, ...]]]
    #: E
    evaluations: int
    generations: int
    #: trials accepted into the population, summed over generations >= 1
    accepted: int
    hv: float
    problems: list[str] = field(default_factory=list)

    @property
    def front_size(self) -> int:
        return len(self.front)

    def same_output(self, other: "JobResult") -> bool:
        return self.front == other.front and self.evaluations == other.evaluations


def _front_of(configs) -> list[tuple[tuple, tuple[float, ...]]]:
    return sorted((c.values, tuple(c.objectives)) for c in configs)


def _accepted(convergence) -> int:
    return sum(r.accepted for r in convergence if r.generation >= 1)


def _score(job: Job, front) -> tuple[float, list[str]]:
    """Normalized V(S) of *front* plus any front-check failure."""
    points = [objs for _, objs in front]
    problem = front_problem(points, job.objectives)
    if problem is not None:
        return 0.0, [f"{job.label}: {problem}"]
    key = envelope_key(job.kernel, job.machine, job.objectives)
    return normalized_hv(points, *envelope(key)), []


class Workload:
    """One workload: its job list, set-up, timed job body and checks."""

    def jobs(self, seed: int, passes: int) -> list[Job]:
        """The jobs of a run of *passes* passes, in order."""
        raise NotImplementedError

    def setup_steps(self, jobs: list[Job]) -> list[Callable[[], None]]:
        """Construction before the first timed job, beyond building the
        job list, as steps that the runner times one by one (both are
        timed as set-up)."""
        return []

    def run(self, job: Job):
        """The timed body of one job; returns its raw output."""
        raise NotImplementedError

    def inspect(self, job: Job, raw) -> JobResult:
        """Check one job's output (untimed) and extract what the metrics
        need; failed checks are listed in ``JobResult.problems``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up created."""


def _tune_jobs(seed: int, passes: int) -> list[Job]:
    return [
        Job(kernel, machine, job_seed(seed, "tune", p, kernel, machine, energy), energy)
        for p in range(passes)
        for machine in MACHINES
        for kernel in PAPER_KERNELS
        for energy in (False, True)
    ]


class Tune(Workload):
    """``repro tune`` end to end: tune, version table, C emission and a
    runtime selection preview, serial engine, no disk cache."""

    cache_dir: Path | None = None

    def jobs(self, seed: int, passes: int) -> list[Job]:
        return _tune_jobs(seed, passes)

    def _driver(self, job: Job) -> TuningDriver:
        return TuningDriver(
            machine=MACHINES[job.machine],
            seed=job.seed,
            cache_dir=None if self.cache_dir is None else str(self.cache_dir),
        )

    def run(self, job: Job):
        tuned = self._driver(job).tune_kernel(
            job.kernel, run_seed=job.seed, with_energy=job.energy
        )
        table = tuned.build_version_table(executable=True)
        unit = tuned.emit_c()
        chosen = tuned.preview_selections()
        return tuned, table, unit, chosen

    def inspect(self, job: Job, raw) -> JobResult:
        tuned, table, unit, chosen = raw
        front = _front_of(tuned.result.front)
        hv, problems = _score(job, front)
        e = tuned.result.evaluations
        ledger = len(tuned.target._cache)
        if not e == tuned.target.evaluations == ledger:
            problems.append(f"{job.label}: E={e} but the target ledger holds {ledger}")
        if tuned.engine_stats.new_evaluations != e:
            problems.append(
                f"{job.label}: E={e} but the engine committed "
                f"{tuned.engine_stats.new_evaluations}"
            )
        size = len(front)
        if len(unit.versions) != size or len(table.versions) != size:
            problems.append(
                f"{job.label}: |S|={size} but emit_c gave {len(unit.versions)} "
                f"versions and the version table {len(table.versions)}"
            )
        if any(not 0 <= index < size for index in chosen.values()):
            problems.append(f"{job.label}: selection outside the table: {chosen}")
        return JobResult(
            front=front,
            evaluations=e,
            generations=tuned.result.generations,
            accepted=_accepted(tuned.result.convergence),
            hv=hv,
            problems=problems,
        )


class TuneWarm(Tune):
    """Two passes of the ``tune`` job list, replayed *passes* times against
    a measurement disk cache that set-up fills with a cold run of them, so
    every timed job dispatches zero configurations."""

    #: ``tune`` passes, each with fresh seeds, in one warm pass: with only
    #: one (20 jobs), the work of a run hinged on its seeds, and E and the
    #: time per pass spread 0.10-0.16 (IQR / median) over five seeds
    DISTINCT_PASSES = 2

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.cold: dict[Job, JobResult] = {}

    def jobs(self, seed: int, passes: int) -> list[Job]:
        return _tune_jobs(seed, self.DISTINCT_PASSES) * passes

    def setup_steps(self, jobs: list[Job]) -> list[Callable[[], None]]:
        self.close()
        self.cache_dir = self.workdir / "cache"
        self.cold = {}
        return [partial(self._fill, job) for job in dict.fromkeys(jobs)]

    def _fill(self, job: Job) -> None:
        tuned = self._driver(job).tune_kernel(
            job.kernel, run_seed=job.seed, with_energy=job.energy
        )
        self.cold[job] = JobResult(
            front=_front_of(tuned.result.front),
            evaluations=tuned.result.evaluations,
            generations=tuned.result.generations,
            accepted=0,
            hv=0.0,
        )

    def inspect(self, job: Job, raw) -> JobResult:
        result = super().inspect(job, raw)
        stats = raw[0].engine_stats
        if stats.dispatched != 0:
            result.problems.append(
                f"{job.label}: a warm job dispatched {stats.dispatched} configurations"
            )
        if not result.same_output(self.cold[job]):
            result.problems.append(
                f"{job.label}: the warm front or E differs from the cold pass"
            )
        return result

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


class Grid(Workload):
    """Brute-force grid sweeps of the 10 paper pairs at paper scale."""

    def jobs(self, seed: int, passes: int) -> list[Job]:
        return [
            Job(kernel, machine, job_seed(seed, "grid", p, kernel, machine))
            for p in range(passes)
            for machine in MACHINES
            for kernel in PAPER_KERNELS
        ]

    def run(self, job: Job):
        return run_brute_force(make_setup(job.kernel, MACHINES[job.machine]), seed=job.seed)

    def inspect(self, job: Job, raw) -> JobResult:
        sweep = raw
        front = _front_of(sweep.result.front)
        hv, problems = _score(job, front)
        e = sweep.evaluations
        grid_points = int(np.prod([len(v) for v in sweep.setup.tile_grid().values()]))
        expected = grid_points * len(sweep.setup.thread_counts)
        distinct = len(np.unique(sweep.data.vectors, axis=0))
        if not e == expected == len(sweep.data) == distinct:
            problems.append(
                f"{job.label}: E={e}, grid points x thread counts={expected}, "
                f"measured rows={len(sweep.data)}, distinct rows={distinct}"
            )
        return JobResult(
            front=front,
            evaluations=e,
            generations=sweep.result.generations,
            accepted=0,
            hv=hv,
            problems=problems,
        )


def make_workload(name: str, workdir: Path) -> Workload:
    if name == "tune":
        return Tune()
    if name == "tune-warm":
        return TuneWarm(workdir)
    if name == "grid":
        return Grid()
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
