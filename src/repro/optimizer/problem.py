"""The tuning problem: parameter space × objective function.

Adapts a region's :class:`~repro.transform.skeleton.TransformationSkeleton`
and a :class:`~repro.evaluation.simulator.SimulatedTarget` to the generic
multi-objective interface the solvers consume: ``f : C → R^m`` mapping a
parameter vector to (time, resources).

The paper's objective function "executes the resulting version and collects
measurements" — here the execution is the simulated measurement; the
evaluation ledger of the target provides the ``E`` metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.evaluation.parallel_eval import EvaluationEngine
from repro.evaluation.simulator import SimulatedTarget
from repro.obs import DISABLED, Observability
from repro.optimizer.config import Configuration
from repro.optimizer.space import ParameterSpace
from repro.transform.skeleton import TransformationSkeleton

__all__ = ["TuningProblem", "decode_vectors", "pair_configurations"]


def decode_vectors(vectors: np.ndarray, dim: int) -> np.ndarray:
    """(B, dim) parameter vectors → (B, dim) int64 value rows, rounded
    half to even like :meth:`ParameterSpace.to_dict`."""
    vectors = np.asarray(vectors, dtype=float).reshape(-1, dim)
    if not np.isfinite(vectors).all():
        raise ValueError("parameter vectors must be finite")
    return np.rint(vectors).astype(np.int64)


@lru_cache(maxsize=None)
def _sorted_names(names: tuple[str, ...]) -> tuple[tuple[str, ...], list[int]]:
    perm = sorted(range(len(names)), key=names.__getitem__)
    return tuple(names[j] for j in perm), perm


def pair_configurations(
    names: tuple[str, ...], values: np.ndarray, objectives: np.ndarray
) -> list[Configuration]:
    """Pair (B, dim) value rows, columns in *names* order, with (B, m)
    objective rows — the sorted-name permutation is computed once per
    parameter-name tuple, not sorted per row."""
    sorted_names, perm = _sorted_names(names)
    return [
        Configuration(values=tuple(zip(sorted_names, row)), objectives=tuple(obj))
        for row, obj in zip(values[:, perm].tolist(), objectives.tolist())
    ]


@dataclass
class TuningProblem:
    """One region's multi-objective tuning problem.

    :param space: the skeleton's parameters (tile sizes + threads [+ …]).
    :param target: the measurement substrate.
    :param skeleton: retained so solutions can be instantiated into code.
    :param tri_objective: optimize (time, resources, energy) instead of
        (time, resources); requires a target with ``measure_energy=True``.
    :param engine: the evaluation engine batches are routed through; None
        builds a serial engine over *target* on first use.  Hand in a
        multi-worker engine to evaluate generations in parallel.
    :param obs: observability handle the optimizers report convergence
        telemetry through; None means disabled (zero overhead).
    """

    space: ParameterSpace
    target: SimulatedTarget
    skeleton: TransformationSkeleton | None = None
    tri_objective: bool = False
    engine: EvaluationEngine | None = None
    obs: Observability | None = None

    def __post_init__(self) -> None:
        if self.tri_objective and not self.target.measure_energy:
            raise ValueError(
                "tri-objective tuning needs a target with measure_energy=True"
            )
        if self.engine is not None and self.engine.target is not self.target:
            raise ValueError("engine must evaluate against this problem's target")

    @classmethod
    def from_skeleton(
        cls,
        skeleton: TransformationSkeleton,
        target: SimulatedTarget,
        tri_objective: bool = False,
        engine: EvaluationEngine | None = None,
        obs: Observability | None = None,
    ) -> "TuningProblem":
        return cls(
            space=ParameterSpace(skeleton.parameters),
            target=target,
            skeleton=skeleton,
            tri_objective=tri_objective,
            engine=engine,
            obs=obs,
        )

    @property
    def observability(self) -> Observability:
        """The run's observability handle (the shared disabled handle when
        none was injected)."""
        return self.obs or DISABLED

    @property
    def evaluation_engine(self) -> EvaluationEngine:
        """The engine all batch evaluations go through (created serially on
        first use if none was injected)."""
        if self.engine is None:
            self.engine = EvaluationEngine(self.target, obs=self.obs)
        return self.engine

    @property
    def num_objectives(self) -> int:
        return 3 if self.tri_objective else 2

    @property
    def evaluations(self) -> int:
        """E — configurations evaluated so far."""
        return self.target.evaluations

    # ------------------------------------------------------------------

    def split_values(self, values: dict[str, int]) -> tuple[dict[str, int], int]:
        """(tile_sizes, threads) from a flat parameter assignment."""
        tiles = {
            name[len("tile_"):]: v
            for name, v in values.items()
            if name.startswith("tile_")
        }
        threads = int(values.get("threads", 1))
        return tiles, threads

    def evaluate(self, values: dict[str, int]) -> Configuration:
        tiles, threads = self.split_values(values)
        obj = self.target.evaluate(tiles, threads)
        vec = obj.vector3() if self.tri_objective else obj.vector()
        return Configuration.make(values, vec)

    def evaluate_vector(self, vec: np.ndarray) -> Configuration:
        return self.evaluate(self.space.to_dict(vec))

    @cached_property
    def _key_columns(self) -> tuple[list[int | None], int | None]:
        """Where the target's key columns sit in a value row, computed once
        per space: each band loop's tile column (None: untiled) and the
        threads column (None: one thread)."""
        names = self.space.names
        tiles = [
            names.index(f"tile_{v}") if f"tile_{v}" in names else None
            for v in self.target.band
        ]
        threads = names.index("threads") if "threads" in names else None
        return tiles, threads

    def decode(self, vectors: np.ndarray) -> np.ndarray:
        """:func:`decode_vectors` over this problem's space."""
        return decode_vectors(vectors, self.space.dim)

    def config_keys(self, values: np.ndarray) -> np.ndarray:
        """The target's canonical key matrix of decoded value rows: tile
        columns in band order (a loop without a tile parameter runs
        untiled), then the threads column (one thread without one)."""
        tile_cols, thread_col = self._key_columns
        extent = self.target.model.extent
        tiles = np.empty((len(values), len(tile_cols)), dtype=np.int64)
        for j, (col, v) in enumerate(zip(tile_cols, self.target.band)):
            tiles[:, j] = extent[v] if col is None else values[:, col]
        threads = 1 if thread_col is None else values[:, thread_col]
        return self.target.config_keys(tiles, np.broadcast_to(threads, len(values)))

    def objective_matrix(self, batch) -> np.ndarray:
        """(B, m) minimization objectives of a committed engine batch, rows
        in input order: time, resources (threads × time) [, energy]."""
        objectives = batch.objectives
        n = len(objectives)
        time = np.fromiter((o.time for o in objectives), dtype=float, count=n)
        columns = [time, batch.matrix[:, -1] * time]
        if self.tri_objective:
            columns.append(np.fromiter((o.energy for o in objectives), dtype=float, count=n))
        return np.stack(columns, axis=1)

    def configurations(self, values: np.ndarray, objectives: np.ndarray) -> list[Configuration]:
        """:func:`pair_configurations` over this problem's space."""
        return pair_configurations(self.space.names, values, objectives)

    def measure(self, values: np.ndarray) -> np.ndarray:
        """The (B, m) objective matrix of decoded value rows, measured
        through the evaluation engine as one key matrix."""
        batch = self.evaluation_engine.evaluate_batch(self.config_keys(values))
        return self.objective_matrix(batch)

    def evaluate_batch(self, vectors: np.ndarray) -> list[Configuration]:
        """Evaluate (B, dim) parameter vectors through the evaluation
        engine — the paper's parallel evaluation of each generation's
        configurations (dedup → dispatch to workers → serial commit).
        """
        values = self.decode(vectors)
        return self.configurations(values, self.measure(values))
