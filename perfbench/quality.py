"""Front checks and the normalized hypervolume V(S), written independently
of the program's own Pareto code so that a change there cannot also change
how its output is judged.

V(S) is scored against a fixed ideal/nadir envelope per (kernel, machine,
objective count) stored in ``envelopes.json`` (regenerate it with
``make_envelopes.py``); it is never recomputed from the fronts being scored.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

__all__ = [
    "front_problem",
    "normalized_hv",
    "envelope",
    "envelope_key",
    "ENVELOPE_FILE",
]

ENVELOPE_FILE = Path(__file__).with_name("envelopes.json")

#: the reference point sits this far beyond the normalized nadir
_MARGIN = 1.1


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def front_problem(points, objectives: int) -> str | None:
    """Why *points* is not a valid Pareto front, or None when it is:
    non-empty, each point has *objectives* finite values, and no point
    dominates another (an O(n^2) pairwise check)."""
    if not points:
        return "empty front"
    for p in points:
        if len(p) != objectives:
            return f"point {p} has {len(p)} objectives, expected {objectives}"
        if not all(math.isfinite(x) for x in p):
            return f"non-finite objective in {p}"
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i != j and _dominates(a, b):
                return f"front point {a} dominates front point {b}"
    return None


def _hv2(points) -> float:
    """Area dominated by 2-D *points* up to (_MARGIN, _MARGIN)."""
    total = 0.0
    prev_y = _MARGIN
    for x, y in sorted(points):
        if y < prev_y:
            total += (_MARGIN - x) * (prev_y - y)
            prev_y = y
    return total


def _hv3(points) -> float:
    """Volume dominated by 3-D *points*: z-slabs times the 2-D area of the
    points below each slab."""
    ordered = sorted(points, key=lambda p: p[2])
    total = 0.0
    for i, p in enumerate(ordered):
        z_next = ordered[i + 1][2] if i + 1 < len(ordered) else _MARGIN
        if z_next > p[2]:
            total += _hv2([q[:2] for q in ordered[: i + 1]]) * (z_next - p[2])
    return total


def normalized_hv(points, ideal, nadir) -> float:
    """V(S) in [0, 1]: the share of the normalized box dominated by
    *points*, with the reference point at a 10% margin beyond the nadir.
    The ideal point scores 1; points outside the envelope are clipped."""
    norm = []
    for p in points:
        row = []
        for x, lo, hi in zip(p, ideal, nadir):
            v = 0.5 if hi <= lo else (x - lo) / (hi - lo)
            row.append(min(max(v, 0.0), _MARGIN))
        norm.append(tuple(row))
    m = len(ideal)
    if m == 2:
        hv = _hv2(norm)
    elif m == 3:
        hv = _hv3(norm)
    else:
        raise ValueError(f"normalized_hv supports 2 or 3 objectives, not {m}")
    return min(1.0, hv / _MARGIN**m)


def envelope_key(kernel: str, machine: str, objectives: int) -> str:
    """Key of one envelope, e.g. ``mm/westmere/m2``."""
    return f"{kernel}/{machine}/m{objectives}"


@functools.cache
def _envelopes() -> dict:
    return json.loads(ENVELOPE_FILE.read_text())


def envelope(key: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The fixed (ideal, nadir) pair for *key*."""
    entry = _envelopes()[key]
    return tuple(entry["ideal"]), tuple(entry["nadir"])
