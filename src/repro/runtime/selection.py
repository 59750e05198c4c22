"""Version-selection policies.

"The actual policy for selecting code versions is dynamically configurable"
(paper §IV).  The default is the paper's weighted-sum rule; the others cover
the scenarios §III-A sketches: user-fixed priorities, system-wide
performance settings (thread caps when the machine is shared), and quality-
of-service constraints (deadlines, efficiency floors).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.version_table import Version, VersionTable

__all__ = [
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
]


class SelectionPolicy:
    """Base: maps a version table (+ runtime context) to a version."""

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class WeightedSumPolicy(SelectionPolicy):
    """Paper §IV: pick the version minimizing ``w_t·time + w_r·resources``.

    Because metadata times/resources live on very different scales, weights
    are applied to *normalized* objectives (min-max over the table) so that
    ``w_time=1, w_resources=0`` reproduces FastestPolicy and the reverse
    MostEfficientPolicy, with a smooth trade-off in between.
    """

    w_time: float = 0.5
    w_resources: float = 0.5

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        versions = list(table)
        if not versions:
            raise ValueError(
                "cannot select a version from an empty version table"
            )
        times = [v.meta.time for v in versions]
        ress = [v.meta.resources for v in versions]
        t_lo, t_span = min(times), max(times) - min(times)
        r_lo, r_span = min(ress), max(ress) - min(ress)

        def norm(x: float, lo: float, span: float) -> float:
            # degenerate tables (single version, or every version sharing
            # the same time/resources) have zero span: the objective
            # carries no signal, so its normalized contribution is 0 —
            # never a division by zero or a NaN score
            return 0.0 if span <= 0.0 else (x - lo) / span

        return min(
            versions,
            key=lambda v: self.w_time * norm(v.meta.time, t_lo, t_span)
            + self.w_resources * norm(v.meta.resources, r_lo, r_span),
        )

    def describe(self) -> str:
        return f"weighted(w_t={self.w_time}, w_r={self.w_resources})"


@dataclass(frozen=True)
class FastestPolicy(SelectionPolicy):
    """Minimize wall time regardless of resource cost."""

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        return table.fastest()


@dataclass(frozen=True)
class MostEfficientPolicy(SelectionPolicy):
    """Minimize cpu-seconds (maximize parallel efficiency)."""

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        return table.most_efficient()


@dataclass(frozen=True)
class TimeCapPolicy(SelectionPolicy):
    """Meet a deadline as cheaply as possible: among versions with
    ``time <= cap`` pick the fewest cpu-seconds; if none qualifies, fall
    back to the fastest version."""

    cap: float

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        qualifying = [v for v in table if v.meta.time <= self.cap]
        if not qualifying:
            return table.fastest()
        return min(qualifying, key=lambda v: v.meta.resources)

    def describe(self) -> str:
        return f"time_cap({self.cap:g}s)"


@dataclass(frozen=True)
class ThreadCapPolicy(SelectionPolicy):
    """System-wide core budget (machine shared with other jobs): fastest
    version not exceeding the available cores.

    The cap defaults to ``context['available_cores']`` so an executor can
    re-select when the machine's free-core count changes — the "dynamically
    adjusting to changing circumstances" scenario of the abstract.
    """

    cap: int | None = None

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        cap = self.cap
        if cap is None:
            cap = int((context or {}).get("available_cores", max(v.meta.threads for v in table)))
        qualifying = [v for v in table if v.meta.threads <= cap]
        if not qualifying:
            qualifying = [min(table, key=lambda v: v.meta.threads)]
        return min(qualifying, key=lambda v: v.meta.time)

    def describe(self) -> str:
        return f"thread_cap({self.cap if self.cap is not None else 'context'})"


@dataclass(frozen=True)
class EfficiencyFloorPolicy(SelectionPolicy):
    """Fastest version whose parallel efficiency (relative to the table's
    best sequential entry) stays above a floor; versions without a
    sequential reference fall back to the resources ordering."""

    floor: float = 0.8

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        seq = [v for v in table if v.meta.threads == 1]
        if not seq:
            return table.most_efficient()
        t_seq = min(v.meta.time for v in seq)
        qualifying = [
            v
            for v in table
            if (t_seq / v.meta.time) / v.meta.threads >= self.floor
        ]
        if not qualifying:
            return table.most_efficient()
        return min(qualifying, key=lambda v: v.meta.time)

    def describe(self) -> str:
        return f"efficiency_floor({self.floor:g})"


@dataclass(frozen=True)
class GreenestPolicy(SelectionPolicy):
    """Minimize energy per invocation; versions without energy metadata
    fall back to the resources ordering (cpu-seconds as energy proxy)."""

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        with_energy = [v for v in table if v.meta.energy is not None]
        if not with_energy:
            return table.most_efficient()
        return min(with_energy, key=lambda v: v.meta.energy)


@dataclass(frozen=True)
class EnergyCapPolicy(SelectionPolicy):
    """Fastest version within an energy budget per invocation; infeasible
    budgets fall back to the greenest version."""

    cap: float

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        qualifying = [
            v for v in table if v.meta.energy is not None and v.meta.energy <= self.cap
        ]
        if not qualifying:
            return GreenestPolicy().select(table, context)
        return min(qualifying, key=lambda v: v.meta.time)

    def describe(self) -> str:
        return f"energy_cap({self.cap:g}J)"


_NAMED = {
    "fastest": FastestPolicy,
    "efficient": MostEfficientPolicy,
    "balanced": lambda: WeightedSumPolicy(0.5, 0.5),
    "greenest": GreenestPolicy,
}

#: parameterized policies: name -> (class, argument parser, arg required).
#: ``thread_cap`` and ``efficiency_floor`` have sensible defaults (context
#: cores / 0.8), the cap policies need an explicit budget.
_PARAMETERIZED = {
    "time_cap": (TimeCapPolicy, float, True),
    "thread_cap": (ThreadCapPolicy, int, False),
    "efficiency_floor": (EfficiencyFloorPolicy, float, False),
    "energy_cap": (EnergyCapPolicy, float, True),
}


def _available() -> list[str]:
    return sorted(_NAMED) + sorted(f"{n}:<value>" for n in _PARAMETERIZED)


def policy_by_name(name: str) -> SelectionPolicy:
    """Construct a policy from a short name.

    Plain names: ``fastest``, ``efficient``, ``balanced``, ``greenest``.
    Parameterized names carry their argument after a colon:
    ``time_cap:<seconds>``, ``thread_cap:<cores>``,
    ``efficiency_floor:<fraction>``, ``energy_cap:<joules>`` —
    ``thread_cap`` (cap from the runtime context) and
    ``efficiency_floor`` (0.8) may omit it.
    """
    base, _, arg = name.partition(":")
    if base in _NAMED:
        if arg:
            raise KeyError(f"policy {base!r} takes no parameter, got {arg!r}")
        return _NAMED[base]()
    if base in _PARAMETERIZED:
        cls, parse, required = _PARAMETERIZED[base]
        if not arg:
            if required:
                raise KeyError(
                    f"policy {base!r} needs a parameter, e.g. {base}:<value>"
                )
            return cls()
        try:
            value = parse(arg)
        except ValueError:
            raise KeyError(
                f"invalid parameter {arg!r} for policy {base!r} "
                f"(expected {parse.__name__})"
            ) from None
        return cls(value)
    raise KeyError(f"unknown policy {name!r}; available: {_available()}")
