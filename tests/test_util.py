"""Tests for repro.util (rng, stats, tables)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.rng import derive_rng, spawn_seed
from repro.util.stats import geomean, mean, median, ndtri, relative_loss, summarize
from repro.util.tables import Table


class TestSpawnSeed:
    def test_deterministic(self):
        assert spawn_seed(42, "a", 1) == spawn_seed(42, "a", 1)

    def test_distinct_keys_distinct_seeds(self):
        seeds = {spawn_seed(42, "k", i) for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_parents_distinct_seeds(self):
        assert spawn_seed(1, "x") != spawn_seed(2, "x")

    def test_64_bit_range(self):
        s = spawn_seed(7, "anything", (1, 2))
        assert 0 <= s < 2**64

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=20))
    def test_always_in_range(self, parent, key):
        assert 0 <= spawn_seed(parent, key) < 2**64


class TestDeriveRng:
    def test_same_seed_same_stream(self):
        a = derive_rng(5, "x").integers(0, 1000, 10)
        b = derive_rng(5, "x").integers(0, 1000, 10)
        assert (a == b).all()

    def test_different_keys_different_streams(self):
        a = derive_rng(5, "x").integers(0, 1 << 62, 10)
        b = derive_rng(5, "y").integers(0, 1 << 62, 10)
        assert (a != b).any()

    def test_generator_parent(self):
        parent = np.random.default_rng(0)
        child = derive_rng(parent)
        assert isinstance(child, np.random.Generator)

    def test_none_parent_gives_entropy(self):
        assert isinstance(derive_rng(None), np.random.Generator)


class TestStats:
    def test_median_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_even_averages(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_relative_loss_basic(self):
        assert relative_loss(1.1, 1.0) == pytest.approx(10.0)

    def test_relative_loss_zero_at_best(self):
        assert relative_loss(2.0, 2.0) == 0.0

    def test_relative_loss_rejects_bad_best(self):
        with pytest.raises(ValueError):
            relative_loss(1.0, 0.0)

    def test_summarize_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["min"] == 1.0 and s["max"] == 3.0 and s["n"] == 3.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_median_between_min_max(self, xs):
        m = median(xs)
        assert min(xs) <= m <= max(xs)


class TestNdtri:
    """The in-tree inverse normal CDF (a port of Cephes' ndtri) against
    golden values of ``scipy.special.ndtri`` 1.17.1, bit for bit."""

    GOLDEN = (
        (1e-300, -37.0470962993612),
        (5e-20, -9.088950100825436),
        (1.2664165549e-14, -7.620199825256184),
        (1e-10, -6.361340902404056),
        (3.3e-05, -3.9902632507893006),
        (0.01, -2.3263478740408408),
        (0.1, -1.2815515655446004),
        (0.1353352832366127, -1.10151962849875),
        (0.135335283236613, -1.1015196284987483),
        (0.2, -0.8416212335729142),
        (0.3, -0.5244005127080409),
        (0.4999, -0.0002506628300880075),
        (0.5, 0.0),
        (0.5001, 0.0002506628300880075),
        (0.7, 0.5244005127080407),
        (0.8646647167633873, 1.1015196284987503),
        (0.9, 1.2815515655446004),
        (0.975, 1.959963984540054),
        (0.999, 3.090232306167813),
        (0.999999999999, 7.0344869100478356),
        (0.9999999999999999, 8.209536151601387),
    )

    def test_golden_values(self):
        u = np.array([p for p, _ in self.GOLDEN])
        z = np.array([q for _, q in self.GOLDEN])
        assert np.array_equal(ndtri(u), z)

    def test_shape_and_scalar(self):
        assert ndtri(0.3).shape == ()
        assert float(ndtri(0.3)) == -0.5244005127080409
        assert ndtri(np.full((4, 3), 0.5)).shape == (4, 3)
        assert ndtri(np.array([])).shape == (0,)

    def test_edges(self):
        out = ndtri(np.array([0.0, 1.0, -0.1, 1.5, np.nan]))
        assert out[0] == -np.inf and out[1] == np.inf
        assert np.isnan(out[2:]).all()

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special", exc_type=ImportError)
        rng = np.random.default_rng(5)
        u = (rng.integers(0, 2**63, 200_000, dtype=np.uint64) * 2.0 + 0.5) / 2.0**64
        tails = np.concatenate([np.logspace(-300, -1, 5000), 1 - np.logspace(-16, -1, 5000)])
        for p in (u, tails):
            assert np.array_equal(ndtri(p), special.ndtri(p))


class TestTable:
    def test_render_contains_cells(self):
        t = Table(["a", "b"], title="T")
        t.add_row(["x", 1])
        text = t.render()
        assert "T" in text and "x" in text and "1" in text

    def test_row_length_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_float_formatting(self):
        t = Table(["v"])
        t.add_row([0.12345])
        assert "0.1234" in t.render() or "0.1235" in t.render()

    def test_alignment_consistent(self):
        t = Table(["col"])
        t.add_row(["looooooooong"])
        lines = t.render().splitlines()
        assert len(lines[0]) == len(lines[2])
