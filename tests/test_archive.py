"""Tests for the incremental Pareto archive.

The contract under test is *exact equality*: the archive's hypervolume
must be bit-identical to :func:`repro.optimizer.hypervolume.hypervolume`
over the archived points at every prefix, and its front must match
:func:`repro.optimizer.pareto.non_dominated_mask` — duplicates retained,
beyond-reference points kept in the front but clipped for the volume.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.model import WESTMERE
from repro.optimizer import ParetoArchive, hypervolume, non_dominated
from repro.optimizer.pareto import non_dominated_mask

REF2 = np.array([1.5, 1.5])


def _check_prefixes(pts: np.ndarray, ref: np.ndarray) -> None:
    """Insert points one at a time; every prefix must match the full
    recomputation exactly (==, not approx)."""
    archive = ParetoArchive(ref)
    for i, p in enumerate(pts):
        archive.add(p, payload=i)
        prefix = pts[: i + 1]
        assert archive.hypervolume == hypervolume(prefix, ref)
        assert archive.front_size == int(non_dominated_mask(prefix).sum())


class TestExactEquality:
    def test_randomized_fronts(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            _check_prefixes(rng.uniform(0.0, 2.0, size=(n, 2)), REF2)

    def test_duplicate_points_and_duplicate_x(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(6, 40))
            pts = rng.uniform(0.0, 2.0, size=(n, 2))
            pts[rng.integers(0, n)] = pts[rng.integers(0, n)]  # exact dup
            i, j = rng.integers(0, n, size=2)
            pts[i, 0] = pts[j, 0]  # duplicate x, different y
            _check_prefixes(pts, REF2)

    def test_beyond_reference_points(self):
        # points outside the reference box stay on the front (original
        # coordinates) but contribute only their clipped area
        pts = np.array(
            [
                [0.5, 3.0],  # y beyond ref
                [3.0, 0.5],  # x beyond ref
                [2.0, 2.0],  # fully beyond
                [0.4, 0.4],
                [0.2, 5.0],
            ]
        )
        _check_prefixes(pts, REF2)

    def test_collinear_staircase(self):
        pts = np.array(
            [[0.1, 1.0], [0.2, 1.0], [0.1, 0.9], [0.3, 0.9], [0.1, 1.0]]
        )
        _check_prefixes(pts, REF2)

    def test_all_dominated_by_first(self):
        pts = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.2], [0.2, 0.9]])
        archive = ParetoArchive(REF2)
        assert archive.add(pts[0]) is True
        for p in pts[1:]:
            assert archive.add(p) is False
        assert archive.front_size == 1
        assert archive.hypervolume == hypervolume(pts, REF2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 4, allow_nan=False, width=32),
                st.floats(0, 4, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_matches_recompute(self, rows):
        pts = np.array(rows, dtype=float)
        _check_prefixes(pts, np.array([2.0, 2.0]))


class TestFrontSemantics:
    def test_front_points_sorted_and_duplicated(self):
        archive = ParetoArchive(REF2)
        archive.add([0.3, 0.5], payload="a")
        archive.add([0.1, 0.9], payload="b")
        archive.add([0.3, 0.5], payload="c")  # exact duplicate retained
        pts = archive.front_points()
        assert pts.tolist() == [[0.1, 0.9], [0.3, 0.5], [0.3, 0.5]]
        assert archive.front() == ["b", "a", "c"]
        assert archive.size == 3

    def test_dominated_payloads_dropped(self):
        archive = ParetoArchive(REF2)
        archive.add([0.5, 0.5], payload="old")
        archive.add([0.4, 0.4], payload="new")
        assert archive.front() == ["new"]

    def test_stats_of_matches_non_dominated_count(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.0, 2.0, size=(200, 2))
        ref = pts.max(axis=0) * 1.1
        front_size, hv = ParetoArchive.stats_of(pts, ref)
        assert hv == hypervolume(pts, ref)
        assert front_size == len(non_dominated(list(pts), key=tuple))

    def test_empty_archive(self):
        archive = ParetoArchive(REF2)
        assert archive.front_size == 0
        assert archive.hypervolume == 0.0
        assert archive.front_points().shape == (0, 2)
        assert archive.front() == []

    def test_dimension_mismatch_rejected(self):
        archive = ParetoArchive(REF2)
        with pytest.raises(ValueError):
            archive.add([0.1, 0.2, 0.3])

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            ParetoArchive([1.0])


class TestNaN:
    """A NaN objective has no place on a front: the archive raises the same
    error as :func:`non_dominated_mask`, on both paths, and keeps its state."""

    @pytest.mark.parametrize("ref", [[10.0, 10.0], [10.0, 10.0, 10.0]])
    def test_add_many_rejects_nan(self, ref):
        m = len(ref)
        pts = np.full((2, m), 2.0)
        pts[0, :] = 1.0
        pts[0, -1] = np.nan
        archive = ParetoArchive(ref)
        with pytest.raises(ValueError, match="NaN") as got:
            archive.add_many(pts)
        with pytest.raises(ValueError) as want:
            non_dominated_mask(pts)
        assert str(got.value) == str(want.value)
        # validated as a batch: nothing was inserted before the NaN row
        assert archive.front_size == 0
        assert archive.hypervolume == 0.0

    def test_add_rejects_nan(self):
        archive = ParetoArchive(REF2)
        archive.add([0.5, 0.5], payload="kept")
        with pytest.raises(ValueError, match="NaN"):
            archive.add([np.nan, 0.1], payload="bad")
        assert archive.front() == ["kept"]

    def test_stats_of_raises_like_non_dominated(self):
        pts = [[1.0, np.nan], [2.0, 2.0]]
        with pytest.raises(ValueError, match="NaN"):
            ParetoArchive.stats_of(pts, [10.0, 10.0])
        with pytest.raises(ValueError, match="NaN"):
            non_dominated(pts)

    def test_infinite_objective_kept_on_front(self):
        # +inf is an ordinary (worst) value: kept on the front when it is
        # best in another objective, clipped to zero width for the volume
        pts = np.array([[1.0, np.inf], [2.0, 2.0]])
        front_size, hv = ParetoArchive.stats_of(pts, [10.0, 10.0])
        assert front_size == int(non_dominated_mask(pts).sum()) == 2
        assert hv == hypervolume(pts, [10.0, 10.0])


class TestTriObjectiveFallback:
    def test_m3_matches_recompute(self):
        rng = np.random.default_rng(3)
        ref = np.array([1.5, 1.5, 1.5])
        for _ in range(20):
            n = int(rng.integers(1, 25))
            pts = rng.uniform(0.0, 2.0, size=(n, 3))
            archive = ParetoArchive(ref)
            for i, p in enumerate(pts):
                archive.add(p, payload=i)
                prefix = pts[: i + 1]
                assert archive.hypervolume == hypervolume(prefix, ref)
                assert archive.front_size == int(non_dominated_mask(prefix).sum())

    def test_m3_front_payloads(self):
        ref = np.array([2.0, 2.0, 2.0])
        archive = ParetoArchive(ref)
        archive.add([1.0, 1.0, 1.0], payload="mid")
        archive.add([0.5, 0.5, 0.5], payload="best")
        archive.add([1.5, 0.2, 1.8], payload="edge")
        assert set(archive.front()) == {"best", "edge"}


    def test_m3_insert_counts(self):
        """A batch insert counts the rows no archived or earlier row
        dominates — the same count as one add() per row."""
        from repro.optimizer.pareto import dominates

        rng = np.random.default_rng(4)
        ref = np.array([3.0, 3.0, 3.0])
        for _ in range(30):
            n = int(rng.integers(1, 20))
            pts = rng.integers(0, 4, size=(n, 3)).astype(float)  # ties, duplicates
            single = ParetoArchive(ref)
            entered = [single.add(p) for p in pts]
            assert entered == [
                not any(dominates(q, p) for q in pts[:i]) for i, p in enumerate(pts)
            ]
            batched = ParetoArchive(ref)
            half = n // 2
            assert batched.add_many(pts[:half]) + batched.add_many(pts[half:]) == sum(entered)
            assert batched.hypervolume == single.hypervolume

    def test_m3_insert_counts_across_blocks(self, monkeypatch):
        """A batch longer than one dominance block counts like one add()
        per row."""
        import repro.optimizer.archive as archive_module

        monkeypatch.setattr(archive_module, "_FALLBACK_BLOCK", 7)
        pts = np.random.default_rng(5).integers(0, 5, size=(40, 3)).astype(float)
        single = ParetoArchive(np.full(3, 5.0))
        entered = sum(single.add(p) for p in pts)
        batched = ParetoArchive(np.full(3, 5.0))
        assert batched.add_many(pts) == entered
        assert batched.front_size == single.front_size


class TestFiveKernelExactness:
    """Acceptance criterion: per-generation telemetry via ParetoArchive
    matches full recomputation exactly on all five kernels."""

    @pytest.mark.parametrize(
        "kernel", ["mm", "dsyrk", "jacobi2d", "stencil3d", "nbody"]
    )
    def test_kernel_front_trajectory(self, kernel):
        from repro.experiments.setups import make_setup

        setup = make_setup(kernel, WESTMERE)
        problem = setup.problem(seed=11)
        rng = np.random.default_rng(5)
        vectors = problem.space.full_boundary().sample(rng, 120)
        configs = problem.evaluate_batch(vectors)
        objs = np.array([c.objectives for c in configs])
        ref = objs.max(axis=0) * 1.1

        archive = ParetoArchive(ref)
        for i, c in enumerate(configs):
            archive.add(c.objectives, payload=c)
            prefix = objs[: i + 1]
            assert archive.hypervolume == hypervolume(prefix, ref)
            assert archive.front_size == int(non_dominated_mask(prefix).sum())
        # one-shot stats agree with the incremental ones
        assert ParetoArchive.stats_of(objs, ref) == (
            archive.front_size,
            archive.hypervolume,
        )
