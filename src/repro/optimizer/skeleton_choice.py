"""Skeleton selection as a tuning parameter.

Paper §III-B1: "Within each configuration all tuning options, **including
the skeleton to be selected**, potential flags enabling optional parts of
the transformation skeleton, unrolling factors, tile sizes and thread count
specifications are modeled uniformly."

The analyzer can propose several transformation skeletons for one region —
here, one per legal loop order of the tilable band (e.g. all six
permutations of mm's fully permutable i/j/k nest).  This module composes
them into one search space with an extra categorical ``skeleton``
parameter; the evaluator dispatches each configuration to the matching
permuted region's cost model.

The composite object satisfies the solver-facing protocol of
:class:`~repro.optimizer.problem.TuningProblem` (``space``,
``evaluate_batch``, ``evaluations``), so RS-GDE3 and the baselines run on
it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from repro.analysis.dependence import analyze_dependences, parallel_loops, tilable_band
from repro.analysis.regions import TunableRegion, extract_regions
from repro.evaluation.cost import RegionCostModel
from repro.evaluation.simulator import SimulatedTarget
from repro.ir.nodes import Function
from repro.machine.model import MachineModel
from repro.optimizer.config import Configuration
from repro.optimizer.problem import TuningProblem, decode_vectors, pair_configurations
from repro.optimizer.space import ParameterSpace
from repro.transform.interchange import permute
from repro.transform.skeleton import Parameter, default_skeleton
from repro.transform.splice import replace_at_path

__all__ = ["SkeletonChoiceProblem", "legal_loop_orders", "build_skeleton_choice"]


def legal_loop_orders(region: TunableRegion) -> list[tuple[str, ...]]:
    """All permutations of the region's tilable band that keep every
    dependence direction vector lexicographically non-negative and preserve
    a parallelizable outermost band loop."""
    band = region.tile_band
    deps = [d for d in region.dependences if not d.is_reduction]
    lvars = list(region.domain.vars)
    orders = []
    for perm in permutations(band):
        full_order = list(perm) + [v for v in lvars if v not in band]
        ok = True
        for dep in deps:
            swapped = [dep.directions[lvars.index(v)] for v in full_order]
            for d in swapped:
                if d == "=":
                    continue
                if d in (">", "*"):
                    ok = False
                break
        if ok:
            orders.append(tuple(perm))
    return orders


@dataclass
class SkeletonChoiceProblem:
    """A composite tuning problem whose configurations carry a ``skeleton``
    index choosing among per-loop-order sub-problems."""

    space: ParameterSpace
    sub_problems: tuple[TuningProblem, ...]
    orders: tuple[tuple[str, ...], ...]
    tri_objective: bool = False

    @property
    def num_objectives(self) -> int:
        return 3 if self.tri_objective else 2

    @property
    def evaluations(self) -> int:
        return sum(p.evaluations for p in self.sub_problems)

    @property
    def target(self):
        """The first sub-target (protocol compatibility; per-skeleton
        targets are in ``sub_problems``)."""
        return self.sub_problems[0].target

    def evaluate(self, values: dict[str, int]) -> Configuration:
        idx = int(values.get("skeleton", 0))
        sub = self.sub_problems[idx]
        cfg = sub.evaluate({k: v for k, v in values.items() if k != "skeleton"})
        return Configuration.make(values, cfg.objectives)

    def evaluate_vector(self, vec: np.ndarray) -> Configuration:
        return self.evaluate(self.space.to_dict(vec))

    def evaluate_batch(self, vectors: np.ndarray) -> list[Configuration]:
        """Measure each row through the sub-problem its ``skeleton`` value
        selects, one key matrix per sub-problem."""
        names = self.space.names
        values = decode_vectors(vectors, self.space.dim)
        skeleton = values[:, names.index("skeleton")]
        objectives = np.full((len(values), self.num_objectives), np.nan)
        for idx, sub in enumerate(self.sub_problems):
            rows = np.flatnonzero(skeleton == idx)
            if rows.size:
                cols = [names.index(n) for n in sub.space.names]
                objectives[rows] = sub.measure(values[np.ix_(rows, cols)])
        if np.isnan(objectives).any():
            raise ValueError("skeleton index outside the composed skeletons")
        return pair_configurations(names, values, objectives)


def build_skeleton_choice(
    function: Function,
    sizes: dict[str, int],
    machine: MachineModel,
    seed: int = 0,
    noise: float = 0.015,
    region_index: int = 0,
    max_orders: int = 6,
) -> SkeletonChoiceProblem:
    """Compose per-loop-order sub-problems for a function's region.

    For every legal order of the tilable band the region's nest is permuted
    and analyzed afresh; each order gets its own skeleton, cost model and
    simulated target (they share the evaluation ledger only through the
    composite's sum).
    """
    base_region = extract_regions(function)[region_index]
    orders = legal_loop_orders(base_region)[:max_orders]
    if not orders:
        raise ValueError("no legal loop order found")

    sub_problems = []
    for order in orders:
        full_order = list(order) + [
            v for v in base_region.domain.vars if v not in order
        ]
        permuted_nest = permute(base_region.nest, full_order)
        permuted_fn = replace_at_path(function, base_region.path, permuted_nest)
        region = extract_regions(permuted_fn)[region_index]
        skeleton = default_skeleton(region, sizes, machine.total_cores)
        model = RegionCostModel(
            region, sizes, machine, parallel_spec=skeleton.parallel_spec()
        )
        target = SimulatedTarget(model, seed=seed, noise=noise)
        sub_problems.append(TuningProblem.from_skeleton(skeleton, target))

    # unified space: the union of tile parameters (identical names across
    # orders since loop names are shared) + threads + the skeleton choice
    base_params = list(sub_problems[0].space.parameters)
    params = base_params + [
        Parameter(
            name="skeleton",
            lo=0,
            hi=len(orders) - 1,
            choices=tuple(range(len(orders))),
        )
    ]
    return SkeletonChoiceProblem(
        space=ParameterSpace(tuple(params)),
        sub_problems=tuple(sub_problems),
        orders=tuple(orders),
    )
