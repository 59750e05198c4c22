"""Pareto dominance primitives (minimization convention).

Definitions follow the paper §III-B1: configuration ``c1`` *dominates*
``c2`` if it is no worse in every objective and strictly better in at least
one; two configurations are *non-dominated* (w.r.t. each other) if neither
dominates; a set of mutually non-dominated configurations is a Pareto set.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "dominates",
    "pairwise_dominance",
    "non_dominated",
    "non_dominated_mask",
    "non_dominated_sort",
    "crowding_distance",
    "reject_nan",
]


def reject_nan(objs: np.ndarray) -> None:
    """Raise ``ValueError`` if any objective in *objs* is NaN: it is neither
    better nor worse than anything, so no front (or volume) exists."""
    if np.isnan(objs).any():
        raise ValueError("objective values must not be NaN")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff objective vector *a* dominates *b* (all ≤, at least one <)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    not_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return not_worse and strictly_better


def pairwise_dominance(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-aligned dominance between two (N, m) objective arrays.

    Returns ``(a_dominates_b, b_dominates_a)`` boolean masks — row ``i``
    of the first mask is exactly ``dominates(a[i], b[i])``.  One
    broadcasted comparison replaces 2·N scalar :func:`dominates` calls in
    the GDE3 selection hot loop.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("objective arrays must have equal shape")
    a_le = a <= b
    a_lt = a < b
    a_dom = a_le.all(axis=1) & a_lt.any(axis=1)
    # b ≤ a is the complement of a < b elementwise; reuse the comparisons
    b_dom = (~a_lt).all(axis=1) & (~a_le).any(axis=1)
    return a_dom, b_dom


def _non_dominated_mask_2d(objs: np.ndarray) -> np.ndarray:
    """O(N log N) sweep for the bi-objective case: sort by the first
    objective, keep points strictly improving the running second-objective
    minimum (exact duplicates are all retained).

    Vectorized over groups of equal first objective: a group survives when
    its minimum beats every earlier group's (the first group always
    does, even at an infinite minimum), and within a surviving group the
    rows at that minimum are kept.  Output-identical to the per-group loop
    (``non_dominated_mask_2d_scalar`` in ``tests/oracles.py``)."""
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    x, y = objs[order, 0], objs[order, 1]
    starts = np.concatenate(([True], x[1:] != x[:-1]))
    group = np.cumsum(starts) - 1
    group_min = y[starts]  # rows sort by the second objective within a group
    best_before = np.concatenate(([np.inf], np.minimum.accumulate(group_min)[:-1]))
    survives = group_min < best_before
    survives[0] = True
    mask = np.empty(len(order), dtype=bool)
    mask[order] = survives[group] & (y == group_min[group])
    return mask


#: row-block size of the vectorized general-m sweep.  Smaller blocks let
#: the survivor filter discard dominated rows sooner (shrinking every
#: later candidate set); larger ones amortize per-block Python overhead.
#: 64 is the empirical sweet spot at populations of a few hundred points
#: (see ``benchmarks/test_select_speedup.py``).
_BLOCK = 64


def _non_dominated_mask_general(objs: np.ndarray) -> np.ndarray:
    """Vectorized general-m mask: lexicographically sorted blocked sweep.

    A dominator is elementwise ≤ with one strict <, so it sorts strictly
    before its victim lexicographically (identical rows dominate neither
    way).  Processing rows in that order, each block only needs one
    broadcasted dominance test against the survivors found so far plus
    the block itself — by transitivity every dominated point has a
    *non-dominated* dominator, so testing against survivors loses
    nothing.  Fronts are small in practice, which keeps the candidate
    side near ``_BLOCK`` rows instead of all N, and peak memory at
    ``O((F + _BLOCK) · _BLOCK · m)`` for front size F.  Output-identical
    to the per-row scalar sweep (``non_dominated_mask_scalar`` in
    ``tests/oracles.py``)."""
    n, m = objs.shape
    # np.lexsort's last key is primary: reverse so column 0 sorts first
    order = np.lexsort(objs.T[::-1])
    rows = objs[order]
    keep = np.empty(n, dtype=bool)
    survivors = np.empty((0, m))
    for lo in range(0, n, _BLOCK):
        block = rows[lo : lo + _BLOCK]  # (b, m) candidate rows
        cand = np.concatenate([survivors, block])
        # dom[j, i]: candidate j dominates block row i.  Accumulating
        # per-objective 2-D outer comparisons sidesteps the (k, b, m)
        # intermediates (and their axis reductions) a single broadcast
        # would materialize.
        le_all = np.less_equal.outer(cand[:, 0], block[:, 0])
        lt_any = np.less.outer(cand[:, 0], block[:, 0])
        for j in range(1, m):
            le_all &= np.less_equal.outer(cand[:, j], block[:, j])
            lt_any |= np.less.outer(cand[:, j], block[:, j])
        kept = ~(le_all & lt_any).any(axis=0)
        keep[lo : lo + _BLOCK] = kept
        survivors = np.concatenate([survivors, block[kept]])
    mask = np.empty(n, dtype=bool)
    mask[order] = keep
    return mask


def non_dominated_mask(objs: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an (N, m) objective array.

    Bi-objective inputs use an O(N log N) sweep (brute-force fronts have
    ~10^5 points); the general case is a blocked broadcasted all-pairs
    dominance test — O(N²·m) element operations but a handful of NumPy
    calls per block instead of a Python-level pass per row.

    :raises ValueError: if any objective is NaN (it is neither better nor
        worse than anything, so no front exists).
    """
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    reject_nan(objs)
    if objs.shape[1] == 2:
        return _non_dominated_mask_2d(objs)
    return _non_dominated_mask_general(objs)


def non_dominated(items: Sequence, key=lambda x: x) -> list:
    """The non-dominated subset of *items*; ``key`` extracts the objective
    vector.  Duplicate objective vectors are all retained."""
    if not items:
        return []
    objs = np.array([key(it) for it in items], dtype=float)
    mask = non_dominated_mask(objs)
    return [it for it, keep in zip(items, mask) if keep]


def non_dominated_sort(objs: np.ndarray) -> list[np.ndarray]:
    """Fast non-dominated sorting: list of index arrays, best front first."""
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    remaining = np.arange(n)
    fronts: list[np.ndarray] = []
    while remaining.size:
        sub = objs[remaining]
        mask = non_dominated_mask(sub)
        fronts.append(remaining[mask])
        remaining = remaining[~mask]
    return fronts


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each row of an (N, m) objective array.

    Boundary points get infinite distance; interior points the sum of
    normalized neighbour gaps per objective.  An objective whose span is
    zero or infinite (an infinite value sorts to a boundary) contributes
    only its boundary points.

    :raises ValueError: if any objective is NaN.
    """
    objs = np.asarray(objs, dtype=float)
    reject_nan(objs)
    n, m = objs.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        col = objs[order, j]
        span = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if not 0 < span < np.inf:
            continue
        gaps = (col[2:] - col[:-2]) / span
        dist[order[1:-1]] += gaps
    return dist
