"""RS-GDE3 — the paper's static optimizer (Fig. 4).

The driver alternates GDE3 generations with rough-set boundary updates:

.. code-block:: none

    population ← random sample of the full space (evaluated)
    B ← full space
    repeat
        population ← GDE3 generation within B
        B ← rough-set reduction from the current population
    until the solutions have not improved for 3 consecutive iterations

"Improvement" is measured by the hypervolume of the population's
non-dominated front (with a fixed normalization established from the
initial population), matching the paper's stopping rule "when the solutions
do not improve for three consecutive iterations".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import DISABLED, ConvergenceRecord, emit_generation, population_delta
from repro.optimizer.archive import ParetoArchive
from repro.optimizer.config import Configuration
from repro.optimizer.gde3 import GDE3, GDE3Settings
from repro.optimizer.pareto import non_dominated
from repro.optimizer.problem import TuningProblem
from repro.optimizer.roughset import rough_set_boundary
from repro.optimizer.space import Boundary
from repro.util.rng import derive_rng

__all__ = ["RSGDE3", "RSGDE3Settings", "OptimizerResult"]


@dataclass(frozen=True)
class RSGDE3Settings:
    """Driver constants.

    :param gde3: inner GDE3 settings (NP=30, CR=F=0.5 per the paper).
    :param patience: consecutive non-improving iterations before stopping
        (3 in the paper).
    :param max_generations: hard safety cap.
    :param hv_epsilon: relative hypervolume gain below which a generation
        counts as non-improving.
    :param protect: parameter names exempt from the rough-set reduction
        (see :func:`repro.optimizer.roughset.rough_set_boundary`); an empty
        set reproduces the unprotected ablation.
    """

    gde3: GDE3Settings = field(default_factory=GDE3Settings)
    patience: int = 3
    max_generations: int = 200
    hv_epsilon: float = 1e-6
    protect: frozenset[str] = frozenset({"threads"})
    #: seed part of the initial population from cache-capacity reasoning
    #: (see :mod:`repro.optimizer.seeding`); 0.0 reproduces the paper's
    #: uniform random initialization
    informed_seed_fraction: float = 0.0


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of one optimizer run.

    :param front: the Pareto set S of non-dominated configurations.
    :param evaluations: E — configurations evaluated during the run.
    :param generations: GDE3 generations executed.
    :param boundary_history: rough-set box volume fraction per iteration
        (diagnostics for the Fig. 4/5 reproduction).
    """

    front: tuple[Configuration, ...]
    evaluations: int
    generations: int
    boundary_history: tuple[float, ...] = ()
    #: (evaluations so far, population-front hypervolume) per generation —
    #: convergence trace for the seeding/strategy comparisons
    hv_history: tuple[tuple[int, float], ...] = ()
    #: full per-generation telemetry (E, |S|, V, accepted/dominated) — the
    #: paper's V-vs-E trajectory as first-class data
    convergence: tuple[ConvergenceRecord, ...] = ()

    @property
    def size(self) -> int:
        return len(self.front)


@dataclass
class RSGDE3:
    """The combined optimizer."""

    problem: TuningProblem
    settings: RSGDE3Settings = field(default_factory=RSGDE3Settings)

    def run(self, seed: int = 0) -> OptimizerResult:
        obs = getattr(self.problem, "observability", None) or DISABLED
        rng = derive_rng(seed, "rsgde3")
        gde3 = GDE3(self.problem, self.settings.gde3)
        full = self.problem.space.full_boundary()

        evals_before = self.problem.evaluations
        with obs.tracer.span("optimizer.run", algorithm="rsgde3", seed=seed) as span:
            if self.settings.informed_seed_fraction > 0:
                from repro.optimizer.seeding import mixed_initial_vectors

                vectors = mixed_initial_vectors(
                    self.problem.space,
                    self.problem.target.model,
                    self.settings.gde3.population_size,
                    rng,
                    informed_fraction=self.settings.informed_seed_fraction,
                )
                population = self.problem.evaluate_batch(vectors)
            else:
                population = gde3.initial_population(full, rng)
            boundary = rough_set_boundary(population, full, protect=self.settings.protect)
            history = [boundary.volume_fraction()]

            # fixed hypervolume normalization from the initial population
            objs0 = np.array([c.objectives for c in population])
            ref = objs0.max(axis=0) * 1.1
            front_size, best_hv = ParetoArchive.stats_of(objs0, ref)
            convergence = [
                ConvergenceRecord(
                    generation=0,
                    evaluations=self.problem.evaluations - evals_before,
                    front_size=front_size,
                    hypervolume=best_hv,
                    accepted=len(population),
                )
            ]
            emit_generation(obs, "rsgde3", convergence[0])
            hv_history = [(convergence[0].evaluations, best_hv)]

            stalled = 0
            generations = 0
            while stalled < self.settings.patience and generations < self.settings.max_generations:
                previous = population
                population = gde3.generation(population, boundary, rng)
                boundary = rough_set_boundary(population, full, protect=self.settings.protect)
                history.append(boundary.volume_fraction())
                generations += 1

                # one staircase pass replaces the non_dominated +
                # hypervolume pair — |S| and V are bit-identical, so the
                # stopping rule below is unchanged
                front_size, hv = ParetoArchive.stats_of(
                    np.array([c.objectives for c in population]), ref
                )
                accepted, dominated = population_delta(previous, population)
                record = ConvergenceRecord(
                    generation=generations,
                    evaluations=self.problem.evaluations - evals_before,
                    front_size=front_size,
                    hypervolume=hv,
                    accepted=accepted,
                    dominated=dominated,
                )
                convergence.append(record)
                emit_generation(obs, "rsgde3", record)
                hv_history.append((record.evaluations, hv))
                if hv > best_hv * (1.0 + self.settings.hv_epsilon):
                    best_hv = hv
                    stalled = 0
                else:
                    stalled += 1

            front = non_dominated(population, key=lambda c: c.objectives)
            front = _dedupe(front)
            span.set(
                generations=generations,
                evaluations=self.problem.evaluations - evals_before,
                front_size=len(front),
                hypervolume=best_hv,
            )
        return OptimizerResult(
            front=tuple(front),
            evaluations=self.problem.evaluations - evals_before,
            generations=generations,
            boundary_history=tuple(history),
            hv_history=tuple(hv_history),
            convergence=tuple(convergence),
        )


def _dedupe(front: list[Configuration]) -> list[Configuration]:
    """Drop configurations with identical parameter assignments."""
    seen = set()
    out = []
    for c in sorted(front, key=lambda c: c.objectives):
        if c.values in seen:
            continue
        seen.add(c.values)
        out.append(c)
    return out
