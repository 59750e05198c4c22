"""Hypervolume indicator V(S).

The paper (§V-B3, citing [22]) judges solution-set quality by the
*normalized* hypervolume: the fraction of the normalized objective box
dominated by the front, with 0 the worst and 1 the (unattainable) ideal.

Exact computation is provided for two objectives (the paper's case: time ×
resources) via the classic staircase sweep, and for m > 2 via the
inclusion-exclusion principle (exponential in front size — fine for the
population-sized fronts here, and cross-checked in tests against the 2-D
exact method).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.optimizer.pareto import non_dominated_mask, reject_nan

__all__ = ["hypervolume", "normalized_hypervolume"]


def hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Hypervolume dominated by *points* up to *reference* (minimization).

    Points beyond the reference contribute nothing; dominated points are
    filtered out first.

    :raises ValueError: if any point has a NaN objective.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float)
    if pts.size == 0:
        return 0.0
    reject_nan(pts)
    if pts.shape[1] != ref.shape[0]:
        raise ValueError("reference dimension mismatch")
    # clip coordinates at the reference (a point beyond ref in one
    # objective keeps its contribution from the others); drop only points
    # that are not strictly inside the box in any dimension
    pts = np.minimum(pts, ref)
    inside = (pts < ref).any(axis=1)
    pts = pts[inside]
    if pts.shape[0] == 0:
        return 0.0
    pts = pts[non_dominated_mask(pts)]
    if pts.shape[1] == 2:
        return _hv2d(pts, ref)
    if pts.shape[1] == 3:
        return _hv3d(pts, ref)
    return _hv_inclusion_exclusion(pts, ref)


def _hv2d(pts: np.ndarray, ref: np.ndarray) -> float:
    """Staircase sweep; input may contain dominated points (filtered)."""
    pts = pts[non_dominated_mask(pts)]
    order = np.argsort(pts[:, 0], kind="stable")
    pts = pts[order]
    total = 0.0
    prev_y = ref[1]
    for x, y in pts:
        if y >= prev_y:
            continue  # dominated in 2D (duplicate x)
        total += (ref[0] - x) * (prev_y - y)
        prev_y = y
    return float(total)


def _hv3d(pts: np.ndarray, ref: np.ndarray) -> float:
    """Exact 3-D hypervolume by sweeping z-slabs: between consecutive z
    values the dominated volume is the 2-D hypervolume of all points with
    smaller-or-equal z, times the slab height.  O(n^2 log n), fine for
    front-sized sets."""
    order = np.argsort(pts[:, 2], kind="stable")
    total = 0.0
    active: list[np.ndarray] = []
    n = len(order)
    for i, idx in enumerate(order):
        active.append(pts[idx, :2])
        z = pts[idx, 2]
        z_next = pts[order[i + 1], 2] if i + 1 < n else ref[2]
        if z_next > z:
            area = _hv2d(np.array(active), ref[:2])
            total += area * (z_next - z)
    return float(total)


def _hv_inclusion_exclusion(pts: np.ndarray, ref: np.ndarray) -> float:
    n = pts.shape[0]
    if n > 20:
        raise ValueError(
            "inclusion-exclusion hypervolume limited to fronts of <= 20 points"
        )
    total = 0.0
    for k in range(1, n + 1):
        sign = 1.0 if k % 2 else -1.0
        for subset in combinations(range(n), k):
            corner = pts[list(subset)].max(axis=0)
            total += sign * float(np.prod(ref - corner))
    return total


def normalized_hypervolume(
    points: np.ndarray,
    ideal: np.ndarray,
    nadir: np.ndarray,
) -> float:
    """V(S) ∈ [0, 1]: hypervolume after min-max normalization into the unit
    box with reference point (1, ..., 1).

    ``ideal``/``nadir`` define the normalization (typically the envelope of
    the union of all fronts under comparison).  Degenerate dimensions
    (ideal == nadir) are centred at 0.5.

    The reference point sits at a 10% margin beyond the normalized nadir
    (the conventional choice) so boundary points of the envelope still
    contribute volume; the result is rescaled by the margin box so the
    ideal point maps to exactly 1.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ideal = np.asarray(ideal, dtype=float)
    nadir = np.asarray(nadir, dtype=float)
    span = nadir - ideal
    norm = np.empty_like(pts)
    for j in range(pts.shape[1]):
        if span[j] <= 0:
            norm[:, j] = 0.5
        else:
            norm[:, j] = (pts[:, j] - ideal[j]) / span[j]
    margin = 1.1
    ref = np.full(pts.shape[1], margin)
    hv = hypervolume(norm, ref) / margin ** pts.shape[1]
    return float(min(1.0, hv))
