"""Runtime system: dynamic selection among generated code versions.

The paper's runtime (Fig. 3, label 6) receives multi-versioned regions and
"dynamically selects among the available code versions" using configurable,
application-specific policies — the default being the weighted-sum rule of
§IV (select the version minimizing ``Σ_c w_c f_c(v)``).

* :mod:`repro.runtime.version_table` — the in-process version table,
* :mod:`repro.runtime.selection` — selection policies,
* :mod:`repro.runtime.scheduler` — region executor asking the policy on
  every invocation, so decisions follow context changes (available cores,
  energy budgets),
* :mod:`repro.runtime.monitor` — execution history and system state,
* :mod:`repro.runtime.online` — a bandit policy learning from observed
  wall times.
"""

from repro.runtime.version_table import Version, VersionColumns, VersionTable
from repro.runtime.selection import (
    EfficiencyFloorPolicy,
    EnergyCapPolicy,
    FastestPolicy,
    GreenestPolicy,
    MostEfficientPolicy,
    SelectionPolicy,
    ThreadCapPolicy,
    TimeCapPolicy,
    WeightedSumPolicy,
    policy_by_name,
)
from repro.runtime.scheduler import RegionExecutor
from repro.runtime.online import BanditSelector
from repro.runtime.monitor import ExecutionRecord, RuntimeMonitor

__all__ = [
    "Version",
    "VersionColumns",
    "VersionTable",
    "SelectionPolicy",
    "WeightedSumPolicy",
    "FastestPolicy",
    "MostEfficientPolicy",
    "TimeCapPolicy",
    "ThreadCapPolicy",
    "EfficiencyFloorPolicy",
    "GreenestPolicy",
    "EnergyCapPolicy",
    "policy_by_name",
    "RegionExecutor",
    "BanditSelector",
    "RuntimeMonitor",
    "ExecutionRecord",
]
