"""Evaluation substrate: turning configurations into measurements.

The paper evaluates configurations by generating, compiling and running code
variants on the target machine (§III-A, label 3).  Here the target machines
are simulated: :mod:`repro.evaluation.cost` predicts the execution time of a
tiled, parallelized region on a :class:`~repro.machine.model.MachineModel`
from first principles (cache-capacity-driven traffic, bandwidth saturation,
load imbalance, parallel overheads), :mod:`repro.evaluation.simulator` adds
measurement noise and the median-of-k protocol the paper uses, and
:mod:`repro.evaluation.parallel_eval` provides the parallel, fault-tolerant
:class:`~repro.evaluation.parallel_eval.EvaluationEngine` that evaluates
configuration batches the way the paper's optimizer does ("multiple
independent configurations are generated, compiled and ... evaluated in
parallel") while keeping the ledger exact under concurrency.

:mod:`repro.evaluation.native` can also *really* execute generated NumPy
versions for small problem sizes (used to sanity-check the pipeline, not
for the paper-scale experiments).
"""

from repro.evaluation.cost import RegionCostModel
from repro.evaluation.disk_cache import DEFAULT_CACHE_DIR, MeasurementDiskCache
from repro.evaluation.measurements import Measurement, MeasurementProtocol
from repro.evaluation.simulator import SimulatedTarget
from repro.evaluation.parallel_eval import (
    BatchResult,
    EngineStats,
    EvaluationEngine,
    FaultPolicy,
    FlakyFaultPolicy,
    auto_workers,
)
from repro.evaluation.native import NativeExecutor
from repro.evaluation.objectives import (
    Objectives,
    efficiency,
    resource_usage,
    speedup,
)

__all__ = [
    "RegionCostModel",
    "SimulatedTarget",
    "MeasurementDiskCache",
    "DEFAULT_CACHE_DIR",
    "Measurement",
    "MeasurementProtocol",
    "BatchResult",
    "EngineStats",
    "EvaluationEngine",
    "FaultPolicy",
    "FlakyFaultPolicy",
    "auto_workers",
    "NativeExecutor",
    "Objectives",
    "speedup",
    "efficiency",
    "resource_usage",
]
