"""Incremental Pareto archive with exact hypervolume.

Every optimizer emits per-generation convergence telemetry (front size
|S| and hypervolume V against a fixed reference — the paper's V-vs-E
trajectories, Figs. 4–5).  Recomputing the non-dominated front and the
hypervolume from scratch each generation is an O(G·n²) hidden cost per
run; :class:`ParetoArchive` replaces it with an incremental structure:

* a **front staircase** over the original objective vectors — for the
  bi-objective case a list sorted by the first objective with strictly
  decreasing second objective, so membership tests are a binary search
  and an insert removes at most a contiguous dominated run (O(log n)
  search + an amortized-small splice).  Exact duplicates of a front
  point are all retained, matching
  :func:`~repro.optimizer.pareto.non_dominated_mask`;
* a **hypervolume staircase** over the reference-clipped points.  The
  :attr:`hypervolume` property sweeps it with *exactly* the arithmetic
  of the full :func:`~repro.optimizer.hypervolume.hypervolume` staircase
  sweep — same terms, same order — so the archive value is bit-identical
  to a full recomputation over the archived points, not merely close.

For m ≠ 2 objectives the archive transparently falls back to storing the
points and recomputing front/hypervolume on query (cached between
inserts), so callers never need to special-case the tri-objective runs.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.optimizer.hypervolume import hypervolume
from repro.optimizer.pareto import non_dominated_mask, reject_nan

__all__ = ["ParetoArchive"]

#: rows per broadcast dominance test of the m != 2 fallback insert
_FALLBACK_BLOCK = 256


class ParetoArchive:
    """Insert-only archive of objective vectors (minimization).

    :param reference: the fixed hypervolume reference point; points
        beyond it are kept in the front but clipped for the volume, the
        same convention :func:`hypervolume` uses.
    """

    def __init__(self, reference) -> None:
        ref = np.asarray(reference, dtype=float)
        if ref.ndim != 1 or ref.shape[0] < 2:
            raise ValueError("reference must be a 1-D point with >= 2 objectives")
        self.reference = ref
        self.m = int(ref.shape[0])
        self._fast = self.m == 2
        # front staircase over original coordinates (2-D fast path):
        # _fx strictly increasing, _fy strictly decreasing, _fpay[i] the
        # payloads of every exact duplicate of point i, insertion order
        self._fx: list[float] = []
        self._fy: list[float] = []
        self._fpay: list[list] = []
        self._fcount = 0
        # hypervolume staircase over reference-clipped coordinates
        self._sx: list[float] = []
        self._sy: list[float] = []
        # m != 2 fallback storage
        self._points: list[tuple[float, ...]] = []
        self._payloads: list = []
        self._dirty = False
        self._hv = 0.0
        self._front_cache: list[int] | None = [] if not self._fast else None

    # ------------------------------------------------------------------

    @classmethod
    def of(cls, points, reference) -> "ParetoArchive":
        """Archive pre-filled with *points* (no payloads)."""
        archive = cls(reference)
        archive.add_many(points)
        return archive

    @classmethod
    def stats_of(cls, points, reference) -> tuple[int, float]:
        """(front size, hypervolume) of *points* against *reference* in
        one pass — bit-identical to ``len(non_dominated(points))`` and
        ``hypervolume(points, reference)``."""
        archive = cls.of(points, reference)
        return archive.front_size, archive.hypervolume

    # ------------------------------------------------------------------

    def add(self, point, payload=None) -> bool:
        """Insert one objective vector; returns whether it is currently
        non-dominated (exact duplicates of a front point count as front
        members and return True).

        :raises ValueError: on a wrong objective count or a NaN objective.
        """
        p = np.asarray(point, dtype=float).reshape(1, -1)
        self._check(p)
        if not self._fast:
            return self._add_fallback(p, [payload]) == 1
        return self._insert(tuple(p[0].tolist()), payload)

    def add_many(self, points, payloads=None) -> int:
        """Insert a batch (row per point); returns how many entered the
        front at insertion time.  The whole batch is validated before any
        point is inserted.

        :raises ValueError: on a wrong objective count or a NaN objective.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            return 0
        self._check(pts)
        if payloads is None:
            payloads = [None] * pts.shape[0]
        if not self._fast:
            return self._add_fallback(pts, list(payloads))
        return sum(
            self._insert(tuple(row), payload)
            for row, payload in zip(pts.tolist(), payloads)
        )

    def _check(self, pts: np.ndarray) -> None:
        """Reject a batch unless it holds m-objective rows without NaN —
        one vectorised check per batch, not one per point."""
        if pts.shape[1] != self.m:
            raise ValueError(
                f"point has {pts.shape[1]} objectives, archive expects {self.m}"
            )
        reject_nan(pts)

    def _insert(self, p: tuple[float, ...], payload) -> bool:
        entered = self._front_insert(p[0], p[1], payload)
        if entered:
            self._hv_insert(p[0], p[1])
        return entered

    # -- queries --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of archived non-dominated items (duplicates counted)."""
        return self.front_size

    @property
    def front_size(self) -> int:
        if self._fast:
            return self._fcount
        return len(self._fallback_front())

    @property
    def hypervolume(self) -> float:
        """Hypervolume of the archived front — bit-identical to
        ``hypervolume(self.front_points(), self.reference)``."""
        if self._fast:
            if self._dirty:
                self._hv = self._sweep()
                self._dirty = False
            return self._hv
        if self._dirty:
            pts = np.array(self._points, dtype=float)
            self._hv = hypervolume(pts, self.reference) if len(pts) else 0.0
            self._dirty = False
        return self._hv

    def front_points(self) -> np.ndarray:
        """The non-dominated points, one row per archived item (duplicates
        repeated), sorted by the first objective in the 2-D fast path."""
        if self._fast:
            rows = []
            for x, y, pay in zip(self._fx, self._fy, self._fpay):
                rows.extend([(x, y)] * len(pay))
            return np.array(rows, dtype=float).reshape(-1, 2)
        idx = self._fallback_front()
        return np.array([self._points[i] for i in idx], dtype=float).reshape(
            -1, self.m
        )

    def front(self) -> list:
        """Payloads of the non-dominated items (insertion order within a
        point, first-objective order across points in the 2-D path)."""
        if self._fast:
            out: list = []
            for pay in self._fpay:
                out.extend(pay)
            return out
        return [self._payloads[i] for i in self._fallback_front()]

    # -- 2-D front staircase (original coordinates) ---------------------

    def _front_insert(self, x: float, y: float, payload) -> bool:
        fx, fy, fpay = self._fx, self._fy, self._fpay
        j = bisect_left(fx, x)
        if j > 0 and fy[j - 1] <= y:
            return False  # strictly dominated by the predecessor
        if j < len(fx) and fx[j] == x:
            if fy[j] < y:
                return False  # dominated at equal first objective
            if fy[j] == y:
                fpay[j].append(payload)  # exact duplicate: retained
                self._fcount += 1
                return True
        # remove the contiguous run this point dominates
        k = j
        while k < len(fx) and fy[k] >= y:
            self._fcount -= len(fpay[k])
            k += 1
        del fx[j:k], fy[j:k], fpay[j:k]
        fx.insert(j, x)
        fy.insert(j, y)
        fpay.insert(j, [payload])
        self._fcount += 1
        return True

    # -- 2-D hypervolume staircase (clipped coordinates) -----------------

    def _hv_insert(self, x: float, y: float) -> None:
        rx, ry = self.reference[0], self.reference[1]
        cx, cy = min(x, rx), min(y, ry)
        if not (cx < rx or cy < ry):
            return  # not strictly inside the box in any dimension
        if cx >= rx:
            return  # zero-width column: never contributes, never sweeps
        sx, sy = self._sx, self._sy
        j = bisect_left(sx, cx)
        if j > 0 and sy[j - 1] <= cy:
            return  # covered by the predecessor step
        if j < len(sx) and sx[j] == cx and sy[j] <= cy:
            return  # covered at equal x
        y_left = sy[j - 1] if j > 0 else ry
        if cy >= y_left:
            return  # at or above the current coverage: no area
        k = j
        while k < len(sx) and sy[k] >= cy:
            k += 1
        del sx[j:k], sy[j:k]
        sx.insert(j, cx)
        sy.insert(j, cy)
        self._dirty = True

    def _sweep(self) -> float:
        """The exact sweep of :func:`hypervolume`'s 2-D staircase, term
        for term, so float association matches a full recomputation."""
        rx, ry = self.reference[0], self.reference[1]
        total = 0.0
        prev_y = ry
        for x, y in zip(self._sx, self._sy):
            total += (rx - x) * (prev_y - y)
            prev_y = y
        return float(total)

    # -- m != 2 fallback -------------------------------------------------

    def _add_fallback(self, pts: np.ndarray, payloads: list) -> int:
        """Store a validated batch; returns how many rows were not
        dominated by an archived point or an earlier row of the batch —
        one broadcast dominance test per block of rows (blocks bound the
        comparison matrix to archive size × block)."""
        entered = 0
        for lo in range(0, len(pts), _FALLBACK_BLOCK):
            block = pts[lo : lo + _FALLBACK_BLOCK]
            n_old = len(self._points)
            cand = np.concatenate(
                [np.array(self._points, dtype=float).reshape(n_old, self.m), block]
            )
            # dom[j, i]: candidate j dominates block row i
            dom = (cand[:, None, :] <= block[None, :, :]).all(axis=2) & (
                cand[:, None, :] < block[None, :, :]
            ).any(axis=2)
            earlier = np.arange(len(cand))[:, None] < n_old + np.arange(len(block))[None, :]
            entered += int((~(dom & earlier).any(axis=0)).sum())
            self._points.extend(map(tuple, block.tolist()))
        self._payloads.extend(payloads)
        self._dirty = True
        self._front_cache = None
        return entered

    def _fallback_front(self) -> list[int]:
        if self._front_cache is None:
            pts = np.array(self._points, dtype=float)
            if len(pts) == 0:
                self._front_cache = []
            else:
                mask = non_dominated_mask(pts)
                self._front_cache = [i for i, keep in enumerate(mask) if keep]
        return self._front_cache
