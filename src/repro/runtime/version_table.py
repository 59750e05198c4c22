"""The in-process version table.

Mirrors the statically generated C table (paper Fig. 6): one entry per
Pareto-optimal code version, carrying the callable (from
:mod:`repro.backend.pygen`) and the trade-off metadata the selection
policies consult.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.backend.meta import VersionMeta
from repro.optimizer.archive import ParetoArchive

__all__ = ["Version", "VersionColumns", "VersionTable"]


@dataclass(frozen=True)
class Version:
    """One executable code version with its metadata."""

    meta: VersionMeta
    fn: Callable[[dict[str, np.ndarray], dict[str, int]], None] | None = None

    def __call__(self, arrays: dict[str, np.ndarray], scalars: dict[str, int]) -> None:
        if self.fn is None:
            raise RuntimeError(
                f"version {self.meta.index} has no executable body "
                "(metadata-only table)"
            )
        self.fn(arrays, scalars)


@dataclass(frozen=True)
class VersionColumns:
    """The table's metadata as read-only column vectors (version-table
    order) — what :class:`~repro.runtime.online.BanditSelector` scores its
    arms against without touching per-version objects."""

    indices: np.ndarray
    times: np.ndarray

    @classmethod
    def of(cls, versions: tuple[Version, ...]) -> "VersionColumns":
        cols = cls(
            indices=np.array([v.meta.index for v in versions], dtype=np.int64),
            times=np.array([v.meta.time for v in versions], dtype=float),
        )
        for arr in (cols.indices, cols.times):
            arr.setflags(write=False)
        return cols


@dataclass
class VersionTable:
    """All versions of one tuned region, ordered by index.

    The ``versions`` tuple is treated as frozen: derived artifacts
    (:meth:`columns`, :meth:`objective_points`, :meth:`archive`) are
    computed once and cached against the tuple's identity, so per-call
    consumers (the bandit scores its arms against :meth:`columns`) never
    rebuild arrays.  Replacing ``versions`` — the executor's
    ``recalibrate`` builds a whole new table — invalidates every cache
    automatically.
    """

    region_name: str
    versions: tuple[Version, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.versions:
            raise ValueError("a version table needs at least one version")
        indices = [v.meta.index for v in self.versions]
        if indices != sorted(set(indices)):
            raise ValueError(f"version indices must be unique and sorted: {indices}")
        self._invalidate()

    def _invalidate(self) -> None:
        self._cached_for: tuple[Version, ...] | None = None
        self._columns: VersionColumns | None = None
        self._points: np.ndarray | None = None
        self._archives: dict[tuple, ParetoArchive] = {}

    def _fresh(self) -> None:
        """Drop derived caches when the versions tuple was swapped."""
        if self._cached_for is not self.versions:
            self._invalidate()
            self._cached_for = self.versions

    def __len__(self) -> int:
        return len(self.versions)

    def __iter__(self):
        return iter(self.versions)

    def __getitem__(self, index: int) -> Version:
        for v in self.versions:
            if v.meta.index == index:
                return v
        raise IndexError(f"no version with index {index}")

    @property
    def metas(self) -> list[VersionMeta]:
        return [v.meta for v in self.versions]

    def pareto_summary(self) -> str:
        return "\n".join(v.meta.describe() for v in self.versions)

    def fastest(self) -> Version:
        return min(self.versions, key=lambda v: v.meta.time)

    def most_efficient(self) -> Version:
        return min(self.versions, key=lambda v: v.meta.resources)

    # -- frozen column cache ---------------------------------------------

    def columns(self) -> VersionColumns:
        """Cached read-only metadata vectors (see :class:`VersionColumns`)."""
        self._fresh()
        if self._columns is None:
            self._columns = VersionColumns.of(self.versions)
        return self._columns

    # -- front quality ---------------------------------------------------

    def objective_points(self) -> np.ndarray:
        """(time, resources) rows in version-index order.

        Cached on the frozen table (read-only array); rebuilt only when the
        ``versions`` tuple itself is replaced.
        """
        self._fresh()
        if self._points is None:
            points = np.array(
                [(v.meta.time, v.meta.resources) for v in self.versions],
                dtype=float,
            ).reshape(-1, 2)
            points.setflags(write=False)
            self._points = points
        return self._points

    def archive(self, reference: np.ndarray | None = None) -> ParetoArchive:
        """The table's versions as a :class:`ParetoArchive`, payloads being
        the versions themselves.  The default reference is the table's own
        objective maxima × 1.1 (the optimizers' normalization rule).

        Archives are cached per reference point and shared — treat the
        result as read-only (copy it before adding points)."""
        self._fresh()
        pts = self.objective_points()
        if reference is None:
            reference = pts.max(axis=0) * 1.1
        cache_key = tuple(float(r) for r in np.asarray(reference).ravel())
        archive = self._archives.get(cache_key)
        if archive is None:
            archive = ParetoArchive(np.asarray(reference, dtype=float))
            archive.add_many(pts, payloads=list(self.versions))
            self._archives[cache_key] = archive
        return archive

    def hypervolume(self, reference: np.ndarray | None = None) -> float:
        """Hypervolume covered by the table's versions — a one-number
        quality indicator for a deployed multi-versioned region."""
        return self.archive(reference).hypervolume
