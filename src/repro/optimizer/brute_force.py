"""Brute-force grid search (paper §V-B1).

The paper's reference method: evaluate a regular grid over the tile-size
space crossed with the machine's evaluated thread counts (>14,000 tiling
configurations for mm), then keep the non-dominated set.  This is the
baseline RS-GDE3 is compared against in Fig. 9 / Table VI, and the source
of the per-thread-count optima of Table II.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.obs import DISABLED, ConvergenceRecord, emit_generation
from repro.optimizer.pareto import non_dominated_mask
from repro.optimizer.problem import TuningProblem
from repro.optimizer.rsgde3 import OptimizerResult, _dedupe
from repro.optimizer.space import ParameterSpace

__all__ = ["grid_candidates", "brute_force_search", "BruteForceData"]


def grid_candidates(lo: int, hi: int, points: int) -> list[int]:
    """A regular grid of ~*points* integer candidates in [lo, hi].

    Uses uniform spacing like the paper's brute force ("exhaustively
    sampling the search space on a regular grid"); always includes both
    endpoints.
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if points < 2 or hi - lo < points:
        return list(range(lo, hi + 1))
    vals = np.unique(np.round(np.linspace(lo, hi, points)).astype(int))
    return vals.tolist()


class BruteForceData:
    """Raw brute-force sweep results: every grid point with its measured
    time, queryable per thread count (feeds Tables II/V and Figs. 1/2/8)."""

    def __init__(
        self,
        names: tuple[str, ...],
        vectors: np.ndarray,
        times: np.ndarray,
        threads: np.ndarray,
    ) -> None:
        self.names = names
        self.vectors = vectors
        self.times = times
        self.threads = threads

    def best_for_threads(self, threads: int) -> tuple[dict[str, int], float]:
        mask = self.threads == threads
        if not mask.any():
            raise KeyError(f"no evaluations with {threads} threads")
        idx = np.flatnonzero(mask)[np.argmin(self.times[mask])]
        values = {n: int(v) for n, v in zip(self.names, self.vectors[idx])}
        return values, float(self.times[idx])

    def thread_counts(self) -> list[int]:
        return sorted(set(int(t) for t in self.threads))

    def __len__(self) -> int:
        return len(self.times)


def brute_force_search(
    problem: TuningProblem,
    tile_grid: dict[str, list[int]],
    thread_counts: list[int],
    keep_data: bool = False,
) -> tuple[OptimizerResult, BruteForceData | None]:
    """Evaluate the full cross product of tile candidates × thread counts.

    :param tile_grid: candidate tile sizes per band loop (keys are the bare
        loop names, e.g. ``{"i": [...], "j": [...]}``).
    :param thread_counts: thread counts to sweep.
    :param keep_data: additionally return the raw sweep for table/figure
        generation.
    :returns: (non-dominated result, optional raw data).
    """
    space = problem.space
    names = space.names
    evals_before = problem.evaluations

    tile_names = [n for n in names if n.startswith("tile_")]
    axes = []
    for n in tile_names:
        loop = n[len("tile_"):]
        if loop not in tile_grid:
            raise KeyError(f"tile grid missing loop {loop!r}")
        axes.append(tile_grid[loop])

    combos = np.array(list(itertools.product(*axes)), dtype=np.int64)
    n_tiles = len(combos)
    n_threads = len(thread_counts)

    vectors = np.empty((n_tiles * n_threads, len(names)))
    for t_idx, thr in enumerate(thread_counts):
        block = slice(t_idx * n_tiles, (t_idx + 1) * n_tiles)
        for j, n in enumerate(tile_names):
            vectors[block, names.index(n)] = combos[:, j]
        if "threads" in names:
            vectors[block, names.index("threads")] = thr

    obs = getattr(problem, "observability", None) or DISABLED
    with obs.tracer.span(
        "optimizer.run", algorithm="brute-force", grid_points=len(vectors)
    ) as span:
        values = problem.decode(vectors)
        objs = problem.measure(values)
        mask = non_dominated_mask(objs)
        front = _dedupe(problem.configurations(values[mask], objs[mask]))
        span.set(
            evaluations=problem.evaluations - evals_before, front_size=len(front)
        )

    from repro.optimizer.archive import ParetoArchive

    record = ConvergenceRecord(
        generation=0,
        evaluations=problem.evaluations - evals_before,
        front_size=len(front),
        hypervolume=ParetoArchive.of(objs[mask], objs.max(axis=0) * 1.1).hypervolume,
        accepted=problem.evaluations - evals_before,
    )
    emit_generation(obs, "brute-force", record)

    result = OptimizerResult(
        front=tuple(front),
        evaluations=problem.evaluations - evals_before,
        generations=0,
        convergence=(record,),
    )
    data = None
    if keep_data:
        threads = (
            values[:, names.index("threads")]
            if "threads" in names
            else np.ones(len(values), dtype=np.int64)
        )
        data = BruteForceData(
            names=names, vectors=vectors.astype(int), times=objs[:, 0], threads=threads
        )
    return result, data
