"""Simultaneous tuning of several regions of one program.

Paper §III-A: "the optimizer conducts auto-tuning by iteratively selecting
sets of configurations for each of the regions ... During the evaluation, a
single execution of the resulting program is sufficient to obtain
measurements for all simultaneously tuned regions."

:class:`MultiRegionTuner` coordinates one RS-GDE3 instance per region.
:meth:`MultiRegionTuner.run` is a cross-region scheduler over the
evaluation engine's session: every active region's generation batch is
submitted to **one shared**
:class:`~repro.evaluation.parallel_eval.EvaluationEngine`, so the worker
pool drains all regions' trials together instead of idling between
per-region barriers, under the engine's one fault policy (deadline, retry,
per-key rescue, degradation).  Identical cost-model fingerprints dedup
across regions (one dispatch serves every region that shares one, each
still committing to its own ledger).  With ``pipeline=True`` a region
whose selection finishes early proposes its next generation while slower
regions' chunks are still in flight, bounded to one generation of lag
(``pipeline=False`` keeps the lock-step barrier on the same code path).
Because measurement noise is hash-derived per key and regions are
data-independent, fronts, per-region ``E`` and ``program_runs`` are
bit-identical for any worker count, chunk size or completion interleaving
— and to the serial region-by-region loop kept in the test suite as the
differential oracle.

The payoff is the ledger: ``program_runs`` grows by ``max_r |trials_r|``
per generation instead of ``Σ_r |trials_r|`` — tuning jacobi-2d's two
spatial regions costs barely more program executions than tuning one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.regions import extract_regions
from repro.driver.compiler import check_sizes
from repro.evaluation.cost import RegionCostModel
from repro.evaluation.measurements import MeasurementProtocol
from repro.evaluation.parallel_eval import BatchResult, EngineStats, EvaluationEngine
from repro.evaluation.simulator import SimulatedTarget
from repro.frontend.kernels import Kernel
from repro.ir.nodes import Function
from repro.machine.model import MachineModel, WESTMERE
from repro.obs import (
    DISABLED,
    ConvergenceRecord,
    Observability,
    emit_generation,
    population_delta,
)
from repro.optimizer.archive import ParetoArchive
from repro.optimizer.gde3 import GDE3
from repro.optimizer.pareto import non_dominated
from repro.optimizer.problem import TuningProblem
from repro.optimizer.roughset import rough_set_boundary
from repro.optimizer.rsgde3 import OptimizerResult, RSGDE3Settings, _dedupe
from repro.transform.skeleton import default_skeleton
from repro.util.rng import derive_rng

__all__ = ["MultiRegionTuner", "MultiRegionResult"]


@dataclass(frozen=True)
class MultiRegionResult:
    """Outcome of one multi-region tuning run.

    :param results: per-region optimizer results (fronts + per-region E).
    :param program_runs: distinct program executions spent — the shared
        cost; compare against ``sum(r.evaluations for r in results)``,
        which is what separate tuning would have paid.
    :param engine_stats: aggregated evaluation accounting across every
        region's batches.
    """

    results: tuple[OptimizerResult, ...]
    program_runs: int
    generations: int
    engine_stats: EngineStats

    @property
    def total_region_evaluations(self) -> int:
        return sum(r.evaluations for r in self.results)

    @property
    def sharing_factor(self) -> float:
        """How many region measurements each program run amortized."""
        if self.program_runs == 0:
            return 1.0
        return self.total_region_evaluations / self.program_runs

    def summary(self) -> str:
        """Human-readable per-region table plus the shared-cost totals."""
        lines = [
            f"{'region':>6}  {'|S|':>4}  {'E':>6}  {'generations':>11}",
        ]
        for idx, res in enumerate(self.results):
            lines.append(
                f"{idx:>6}  {res.size:>4}  {res.evaluations:>6}  "
                f"{res.generations:>11}"
            )
        lines.append(
            f"program runs: {self.program_runs}  "
            f"(Σ region E = {self.total_region_evaluations}, "
            f"sharing ×{self.sharing_factor:.2f})"
        )
        return "\n".join(lines)


class _RegionState:
    """One region's optimizer state inside the cross-region scheduler.

    Every mutation of this state depends only on the region's own RNG
    stream and its own measured objectives — never on sibling timing —
    which is what makes the scheduler's results independent of worker
    count and completion order.
    """

    def __init__(self, idx: int, problem: TuningProblem, settings, seed: int):
        self.idx = idx
        self.problem = problem
        self.settings = settings
        self.optimizer = GDE3(problem, settings.gde3)
        self.rng = derive_rng(seed, "multiregion", idx)
        self.full = problem.space.full_boundary()
        self.boundary = self.full
        self.population = None
        self.ref: np.ndarray | None = None
        self.best_hv = 0.0
        self.stalled = 0
        self.gen = -1  # last fully absorbed generation (-1: nothing yet)
        self.finished = False
        self.records: list[ConvergenceRecord] = []
        self.evals_before = problem.evaluations
        # in-flight bookkeeping
        self.batch: BatchResult | None = None
        self.values: np.ndarray | None = None

    # -- propose / absorb: the two halves of one generation ---------------

    def propose(self, engine: EvaluationEngine) -> None:
        """Draw this region's next batch (initial sample or GDE3 trials)
        and submit it to the engine's session."""
        if self.population is None:
            vectors = self.full.sample(
                self.rng, self.settings.gde3.population_size
            )
        else:
            vectors = self.optimizer.propose(
                self.population, self.boundary, self.rng
            )
        self.values = self.problem.decode(vectors)
        self.batch = engine.fused_submit(
            self.problem.target,
            self.problem.config_keys(self.values),
            region=str(self.idx),
        )

    def absorb(self, obs: Observability) -> None:
        """Fold the drained batch back into the optimizer state: select,
        rough-set update, telemetry, stall check."""
        trial_configs = self.problem.configurations(
            self.values, self.problem.objective_matrix(self.batch)
        )
        self.batch = None
        self.values = None
        self.gen += 1

        if self.population is None:
            self.population = trial_configs
            objs0 = np.array([c.objectives for c in self.population])
            self.ref = objs0.max(axis=0) * 1.1
            front_size, self.best_hv = ParetoArchive.stats_of(objs0, self.ref)
            record = ConvergenceRecord(
                generation=0,
                evaluations=self.problem.evaluations - self.evals_before,
                front_size=front_size,
                hypervolume=self.best_hv,
                accepted=len(self.population),
            )
        else:
            previous = self.population
            self.population = self.optimizer.select(self.population, trial_configs)
            accepted, dominated = population_delta(previous, self.population)
            front_size, hv = ParetoArchive.stats_of(
                np.array([c.objectives for c in self.population]), self.ref
            )
            record = ConvergenceRecord(
                generation=self.gen,
                evaluations=self.problem.evaluations - self.evals_before,
                front_size=front_size,
                hypervolume=hv,
                accepted=accepted,
                dominated=dominated,
            )
            if hv > self.best_hv * (1.0 + self.settings.hv_epsilon):
                self.best_hv = hv
                self.stalled = 0
            else:
                self.stalled += 1
                if self.stalled >= self.settings.patience:
                    self.finished = True
        self.boundary = rough_set_boundary(
            self.population, self.full, protect=self.settings.protect
        )
        self.records.append(record)
        emit_generation(obs, f"multiregion[{self.idx}]", record)
        if self.gen >= self.settings.max_generations:
            self.finished = True

    def result(self, generations: int) -> OptimizerResult:
        front = _dedupe(non_dominated(self.population, key=lambda c: c.objectives))
        return OptimizerResult(
            front=tuple(front),
            evaluations=self.problem.evaluations - self.evals_before,
            generations=generations,
            hv_history=tuple((r.evaluations, r.hypervolume) for r in self.records),
            convergence=tuple(self.records),
        )


@dataclass
class MultiRegionTuner:
    """Simultaneous RS-GDE3 over all tunable regions of a function.

    :param function: the program (e.g. jacobi-2d with two spatial nests).
    :param sizes: problem-size bindings.
    :param machine: simulated target platform (callers that tune for a
        specific machine must pass it — the WESTMERE default exists for
        machine-agnostic tests and examples only).
    :param workers: shared evaluation workers for :meth:`run`; 1 keeps
        the whole pipeline serial (still fused, still bit-identical).
    :param chunk_size: per-worker chunk size forwarded to the engine.
    :param backend: ``"thread"`` or ``"process"`` evaluation workers.
    :param pipeline: allow one generation of cross-region lag in
        :meth:`run` (off = lock-step barrier on the same code path).
    :param protocol: measurement protocol handed to every region target
        (the benchmark injects per-configuration overhead through this).
    :param disk_cache: persistent measurement cache shared by all
        region targets.
    :param obs: observability handle (scheduler spans + metrics).
    """

    function: Function
    sizes: dict[str, int]
    machine: MachineModel = field(default_factory=lambda: WESTMERE)
    settings: RSGDE3Settings = field(default_factory=RSGDE3Settings)
    seed: int = 0
    noise: float = 0.015
    kernel: Kernel | None = None
    workers: int | str = 1
    chunk_size: int | None = None
    backend: str = "thread"
    pipeline: bool = False
    protocol: MeasurementProtocol | None = None
    disk_cache: object | None = None
    obs: Observability | None = None

    def _build_problems(self) -> list[TuningProblem]:
        regions = extract_regions(self.function)
        if not regions:
            raise ValueError(f"no tunable regions in {self.function.name!r}")
        check_sizes(self.function, self.sizes, regions)
        problems = []
        for region in regions:
            skeleton = default_skeleton(
                region, self.sizes, self.machine.total_cores
            )
            model = RegionCostModel(
                region,
                self.sizes,
                self.machine,
                parallel_spec=skeleton.parallel_spec(),
            )
            target = SimulatedTarget(
                model,
                seed=self.seed,
                noise=self.noise,
                protocol=self.protocol,
                disk_cache=self.disk_cache,
            )
            problems.append(TuningProblem.from_skeleton(skeleton, target))
        return problems

    # -- fused cross-region scheduler ----------------------------------

    def run(self, seed: int = 0) -> MultiRegionResult:
        """Tune all regions through one shared evaluation session.

        Every region's generation batch lands in the same work queue;
        the pool stays busy until the whole generation drains.  Results
        are bit-identical to the serial region-by-region loop for any
        ``workers``, ``chunk_size``, ``backend`` and ``pipeline``
        setting.
        """
        obs = self.obs or DISABLED
        problems = self._build_problems()
        states = [
            _RegionState(i, p, self.settings, seed)
            for i, p in enumerate(problems)
        ]
        by_region = {str(st.idx): st for st in states}
        max_lag = 1 if self.pipeline else 0
        engine = EvaluationEngine(
            problems[0].target,
            max_workers=self.workers,
            backend=self.backend,
            chunk_size=self.chunk_size,
            obs=obs,
        )

        with obs.tracer.span(
            "scheduler.run",
            regions=len(states),
            workers=self.workers,
            pipeline=self.pipeline,
        ) as span:
            try:
                for st in states:  # everyone's initial sample, fused
                    st.propose(engine)
                while any(st.batch is not None for st in states):
                    for batch in engine.fused_wait():
                        by_region[batch.region].absorb(obs)
                    running = [st for st in states if not st.finished]
                    if not running:
                        continue  # drain stragglers, nothing new to submit
                    # bounded lag: a region may run ahead of the slowest
                    # unfinished region by at most max_lag generations
                    min_gen = min(st.gen for st in running)
                    for st in running:
                        if st.batch is None and st.gen - min_gen <= max_lag:
                            st.propose(engine)
            finally:
                engine.close()
            stats = engine.stats

            generations = max(st.gen for st in states)
            program_runs = self.settings.gde3.population_size * (1 + generations)
            span.set(
                generations=generations,
                program_runs=program_runs,
                shared_hits=stats.shared_hits,
            )

        return MultiRegionResult(
            results=tuple(st.result(generations) for st in states),
            program_runs=program_runs,
            generations=generations,
            engine_stats=stats,
        )
