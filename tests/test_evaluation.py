"""Tests for the evaluation substrate: objectives, measurement protocol,
the analytical cost model (including cache-simulator cross-validation and
the paper's qualitative phenomena) and the simulated target."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import extract_regions
from repro.evaluation import (
    EvaluationEngine,
    MeasurementProtocol,
    Objectives,
    RegionCostModel,
    SimulatedTarget,
    efficiency,
    resource_usage,
    speedup,
)
from repro.experiments import make_setup
from repro.frontend import get_kernel
from repro.ir.interp import run_function
from repro.machine import BARCELONA, WESTMERE, CacheHierarchy, CacheSim
from repro.machine.cache import AddressTraceRecorder
from repro.machine.model import CacheLevel, MachineModel
from repro.transform import replace_at_path, tile

from tests.oracles import ScalarCostModel, noise_factors


class TestObjectives:
    def test_vector(self):
        o = Objectives(time=2.0, threads=4)
        assert o.vector() == (2.0, 8.0)
        assert o.resources == 8.0

    def test_speedup_efficiency(self):
        assert speedup(0.5, 2.0) == 4.0
        assert efficiency(0.5, 4, 2.0) == 1.0
        assert resource_usage(0.5, 4) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            efficiency(1.0, 0, 1.0)


class TestMeasurementProtocol:
    def test_median_of_k(self):
        samples = iter([3.0, 1.0, 2.0])
        p = MeasurementProtocol(repetitions=3)
        m = p.measure(lambda: next(samples))
        assert m.value == 2.0 and m.repetitions == 3

    def test_rejects_nonpositive_sample(self):
        p = MeasurementProtocol(repetitions=1)
        with pytest.raises(ValueError):
            p.measure(lambda: 0.0)

    def test_rejects_bad_repetitions(self):
        with pytest.raises(ValueError):
            MeasurementProtocol(repetitions=0)

    def test_spread(self):
        samples = iter([1.0, 2.0, 3.0])
        m = MeasurementProtocol(3).measure(lambda: next(samples))
        assert m.spread == pytest.approx(1.0)


class TestCostModelBasics:
    def test_time_positive(self, mm_model):
        assert mm_model.time({"i": 32, "j": 288, "k": 9}, 10) > 0

    def test_untiled_default(self, mm_model):
        assert mm_model.time({}, 1) == mm_model.baseline_time()

    def test_more_threads_faster_mm(self, mm_model):
        tiles = {"i": 64, "j": 128, "k": 16}
        t1 = mm_model.time(tiles, 1)
        t10 = mm_model.time(tiles, 10)
        assert t10 < t1 / 5  # decent scaling for cache-friendly tiles

    def test_sublinear_scaling(self, mm_model):
        """Efficiency decays with threads (paper Table III)."""
        tiles = {"i": 64, "j": 128, "k": 16}
        t1 = mm_model.time(tiles, 1)
        t40 = mm_model.time(tiles, 40)
        eff40 = (t1 / t40) / 40
        assert 0.4 < eff40 < 0.95

    def test_tiling_headroom_over_baseline(self, mm_model):
        """The paper's 'enormous potential of tiling': a good tiling beats
        the untiled baseline by a large factor."""
        good = mm_model.time({"i": 96, "j": 128, "k": 8}, 1)
        assert mm_model.baseline_time() / good > 5

    def test_tile_sizes_clipped_to_extent(self, mm_model):
        assert mm_model.time({"i": 10**9, "j": 10**9, "k": 10**9}, 1) == pytest.approx(
            mm_model.baseline_time()
        )

    def test_load_imbalance_penalty(self, mm_model):
        """Huge tiles leave too few parallel iterations for 40 threads."""
        few_iters = mm_model.time({"i": 700, "j": 700, "k": 16}, 40)  # P = 4
        many_iters = mm_model.time({"i": 64, "j": 128, "k": 16}, 40)
        assert few_iters > 2 * many_iters

    def test_sweep_factor_multiplies(self):
        k = get_kernel("jacobi2d")
        region = extract_regions(k.function)[0]
        m1 = RegionCostModel(region, {"N": 500, "T": 1}, WESTMERE)
        m10 = RegionCostModel(region, {"N": 500, "T": 10}, WESTMERE)
        tiles = {"i": 50, "j": 50}
        assert m10.time(tiles, 1) == pytest.approx(10 * m1.time(tiles, 1))

    def test_all_kernels_all_machines(self, kernel, machine):
        region = extract_regions(kernel.function)[0]
        m = RegionCostModel(
            region, kernel.default_size, machine,
            flops_per_iteration=kernel.flops_per_point,
        )
        tiles = {v: 16 for v in m.band}
        for thr in machine.default_thread_counts():
            assert m.time(tiles, thr) > 0


class TestPaperPhenomena:
    """The qualitative effects the paper's evaluation rests on."""

    def test_optimal_tiles_depend_on_thread_count_barcelona(self):
        """Fig 2 / Table II: per-thread-count optima differ, because the
        shared L3 capacity per thread shrinks (here: on Barcelona's small
        2 MB L3 the effect is strongest)."""
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        m = RegionCostModel(region, {"N": 1400}, BARCELONA)
        cands = [8, 16, 32, 64, 128, 256, 350, 700]
        best = {}
        for thr in (1, 32):
            best[thr] = min(
                ((m.time({"i": ti, "j": tj, "k": tk}, thr), (ti, tj, tk))
                 for ti in cands for tj in cands for tk in cands)
            )[1]
        assert best[1] != best[32]

    def test_cross_thread_penalty(self):
        """Running tiles tuned for 1 thread with all cores loses performance
        (paper: 15-18% on mm, up to 4x on n-body)."""
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        m = RegionCostModel(region, {"N": 1400}, BARCELONA)
        cands = [8, 16, 32, 64, 128, 256, 350, 700]
        def best(thr):
            return min(
                ((m.time({"i": ti, "j": tj, "k": tk}, thr), (ti, tj, tk))
                 for ti in cands for tj in cands for tk in cands)
            )
        t1, tiles1 = best(1)
        t32, _ = best(32)
        cross = m.time(dict(zip("ijk", tiles1)), 32)
        assert cross >= t32  # tuned wins
        assert cross / t32 > 1.02  # and the penalty is visible

    def test_nbody_cache_fit_asymmetry(self):
        """Table V: n-body's particle arrays fit each thread's share of
        Westmere's 30 MB L3 (j-blocking barely matters) but overflow the
        share of Barcelona's 2 MB L3 once a socket fills (huge penalty).
        Tested at one full socket per machine with identical parallel
        granularity (same i tile) so only the cache effect differs."""
        k = get_kernel("nbody")
        region = extract_regions(k.function)[0]
        sizes = k.default_size
        unblocked = {"i": 256, "j": sizes["n"]}
        blocked = {"i": 256, "j": 4096}
        for mach, threads, min_ratio, max_ratio in (
            (WESTMERE, 10, 0.0, 1.35),
            (BARCELONA, 4, 1.5, 1e9),
        ):
            m = RegionCostModel(region, sizes, mach, flops_per_iteration=k.flops_per_point)
            ratio = m.time(unblocked, threads) / m.time(blocked, threads)
            assert min_ratio <= ratio <= max_ratio, (mach.name, ratio)

    def test_efficiency_speedup_tradeoff_shape(self, mm_model):
        """Fig 1 / Table III: speedup grows, efficiency falls monotonically
        across the paper's thread counts."""
        tiles = {"i": 64, "j": 128, "k": 16}
        t = {thr: mm_model.time(tiles, thr) for thr in (1, 5, 10, 20, 40)}
        speedups = [t[1] / t[thr] for thr in (1, 5, 10, 20, 40)]
        effs = [s / thr for s, thr in zip(speedups, (1, 5, 10, 20, 40))]
        assert all(a < b for a, b in zip(speedups, speedups[1:]))
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_jacobi_bandwidth_saturation(self):
        """A bandwidth-bound sweep stops scaling within a socket — the
        mechanism that drops high-thread configs off the Pareto front."""
        k = get_kernel("jacobi2d")
        region = extract_regions(k.function)[0]
        m = RegionCostModel(
            region, k.default_size, WESTMERE, flops_per_iteration=k.flops_per_point
        )
        tiles = {"i": 256, "j": 256}
        t5 = m.time(tiles, 5)
        t10 = m.time(tiles, 10)
        assert t10 > 0.7 * t5  # nowhere near 2x


@functools.lru_cache(maxsize=None)
def _differential_models() -> tuple[RegionCostModel, ...]:
    """Every paper (kernel, machine) pair at its paper size, under its own
    parallel spec and under every other spec kind the model supports."""
    models = []
    for machine in (WESTMERE, BARCELONA):
        for name in ("mm", "dsyrk", "jacobi2d", "stencil3d", "nbody"):
            base = make_setup(name, machine).model
            band = base.band
            specs = [base.parallel_spec, ("none", None)]
            specs += [("collapse", depth) for depth in range(1, len(band) + 1)]
            specs += [("tile", v) for v in band] + [("point", v) for v in band]
            for spec in dict.fromkeys(specs):
                models.append(
                    RegionCostModel(
                        base.region,
                        base.bindings,
                        machine,
                        flops_per_iteration=base.flops_per_iteration,
                        parallel_spec=spec,
                    )
                )
    return tuple(models)


class TestBatchEqualsScalar:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_batch_matches_scalar(self, seed):
        """The vectorized core equals the frozen scalar oracle bit for bit
        (time, energy and per-level traffic) on every paper pair and every
        parallel-spec kind, including clipped and untiled rows; the
        single-configuration views are its one-row batches."""
        rng = np.random.default_rng(seed)
        B = 4
        for model in _differential_models():
            oracle = ScalarCostModel(model)
            ext = [model.extent[v] for v in model.band]
            tiles = np.stack([rng.integers(-1, e + 8, B) for e in ext], axis=1)
            threads = rng.integers(1, model.machine.total_cores + 1, B)
            parts = model.breakdown(tiles, threads)
            times, energies = model.energy_batch(tiles, threads)
            assert np.array_equal(times, parts.time)
            for b in range(B):
                tile_map = {v: int(x) for v, x in zip(model.band, tiles[b])}
                thr = int(threads[b])
                expected = oracle.evaluate(tile_map, thr)
                assert times[b] == expected["time"]
                assert energies[b] == oracle.energy(tile_map, thr)
                assert [lt[b] for lt in parts.level_traffic] == expected["level_traffic"]
            assert model.time(tile_map, thr) == times[-1]
            assert model.energy(tile_map, thr) == energies[-1]

    def test_collapsed_override_matches_scalar(self, mm_model):
        oracle = ScalarCostModel(mm_model)
        tiles = np.array([[64, 128, 16], [7, 700, 1], [1400, 1400, 1400]])
        threads = np.array([10, 40, 3])
        assert np.array_equal(
            mm_model.time_batch(tiles, threads), mm_model.breakdown(tiles, threads).time
        )
        for collapsed in (1, 2, 3):
            times = mm_model.time_batch(tiles, threads, collapsed=collapsed)
            for row, thr, t in zip(tiles, threads, times):
                tile_map = dict(zip(mm_model.band, map(int, row)))
                assert t == oracle.time(tile_map, int(thr), collapsed=collapsed)

    def test_thread_count_validated(self, mm_model):
        with pytest.raises(ValueError, match="thread counts"):
            mm_model.time({"i": 8}, 0)
        with pytest.raises(ValueError, match="thread counts"):
            mm_model.time_batch(np.ones((2, 3)), np.array([1, 41]))
        assert mm_model.time_batch(np.ones((0, 3)), np.ones(0)).shape == (0,)

    def test_batch_shape_validation(self, mm_model):
        with pytest.raises(ValueError):
            mm_model.time_batch(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            mm_model.time_batch(np.ones((3, 3)), np.ones(4))


class TestCacheSimValidation:
    """Cross-validation of the analytical traffic model against the
    trace-driven cache simulator on a miniature mm."""

    @staticmethod
    def _machine(l1=2 * 1024, l2=16 * 1024):
        return MachineModel(
            name="Tiny",
            sockets=1,
            cores_per_socket=1,
            freq_hz=1e9,
            flops_per_cycle=1.0,
            levels=(
                CacheLevel("L1", l1, 64, 2, shared=False, fetch_bw=1e9),
                CacheLevel("L2", l2, 64, 4, shared=True, fetch_bw=1e9),
            ),
            dram_bw_per_socket=1e9,
            dram_bw_per_core=1e9,
        )

    def _simulated_misses(self, nest_transform, n=24):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        fn = (
            replace_at_path(k.function, region.path, nest_transform(region.nest))
            if nest_transform
            else k.function
        )
        rec = AddressTraceRecorder()
        for name in ("A", "B", "C"):
            rec.register(name, (n, n))
        rng = np.random.default_rng(0)
        inputs = k.make_inputs({"N": n}, rng)
        run_function(fn, inputs, {"N": n}, trace_hook=rec.record)
        machine = self._machine()
        hier = CacheHierarchy.from_machine(machine)
        rec.replay(hier)
        return {lv.name: lv.miss_bytes for lv in hier.levels}

    def _analytic_traffic(self, tiles, n=24):
        """Per-level traffic of one sequential configuration, read from the
        cost model's breakdown."""
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        m = RegionCostModel(region, {"N": n}, self._machine())
        parts = m.breakdown(np.array([[tiles.get(v, n) for v in m.band]]), np.array([1]))
        return {
            level.name: float(traffic[0])
            for level, traffic in zip(m.machine.levels, parts.level_traffic)
        }

    def test_untiled_l1_traffic_within_factor(self):
        sim = self._simulated_misses(None)
        ana = self._analytic_traffic({})
        assert ana["L1"] / sim["L1"] == pytest.approx(1.0, abs=0.8)

    def test_tiling_reduces_l1_misses_in_both(self):
        tiles = {"i": 8, "j": 8, "k": 8}
        sim_untiled = self._simulated_misses(None)
        sim_tiled = self._simulated_misses(lambda nest: tile(nest, tiles))
        ana_untiled = self._analytic_traffic({})
        ana_tiled = self._analytic_traffic(tiles)
        assert sim_tiled["L1"] < sim_untiled["L1"]
        assert ana_tiled["L1"] < ana_untiled["L1"]
        # improvement factors agree within ~3x
        sim_gain = sim_untiled["L1"] / sim_tiled["L1"]
        ana_gain = ana_untiled["L1"] / ana_tiled["L1"]
        assert ana_gain / sim_gain == pytest.approx(1.0, abs=0.7)


class TestSimulatedTarget:
    def test_deterministic(self, mm_model):
        t1 = SimulatedTarget(mm_model, seed=5).evaluate({"i": 32, "j": 64, "k": 8}, 10)
        t2 = SimulatedTarget(mm_model, seed=5).evaluate({"i": 32, "j": 64, "k": 8}, 10)
        assert t1 == t2

    def test_seed_changes_noise(self, mm_model):
        t1 = SimulatedTarget(mm_model, seed=1).evaluate({"i": 32, "j": 64, "k": 8}, 10)
        t2 = SimulatedTarget(mm_model, seed=2).evaluate({"i": 32, "j": 64, "k": 8}, 10)
        assert t1.time != t2.time

    def test_noise_magnitude(self, mm_model):
        tgt = SimulatedTarget(mm_model, seed=3, noise=0.02)
        obj = tgt.evaluate({"i": 32, "j": 64, "k": 8}, 10)
        truth = tgt.true_time({"i": 32, "j": 64, "k": 8}, 10)
        assert abs(obj.time - truth) / truth < 0.1

    def test_ledger_counts_unique_configs(self, mm_target):
        mm_target.evaluate({"i": 32, "j": 64, "k": 8}, 10)
        mm_target.evaluate({"i": 32, "j": 64, "k": 8}, 10)  # cache hit
        mm_target.evaluate({"i": 32, "j": 64, "k": 8}, 20)
        assert mm_target.evaluations == 2

    def test_reset_ledger(self, mm_target):
        mm_target.evaluate({"i": 32, "j": 64, "k": 8}, 10)
        mm_target.reset_ledger()
        assert mm_target.evaluations == 0

    def test_commit_rejects_non_finite_objectives(self, mm_target):
        key = (32, 64, 8, 10)
        measurement = mm_target.compute_keys([key]).records()[0][1]
        for obj in (
            Objectives(time=float("nan"), threads=10),
            Objectives(time=float("inf"), threads=10),
            Objectives(time=1.0, threads=10, energy=float("nan")),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                mm_target.commit(key, obj, measurement)
        assert mm_target.evaluations == 0 and mm_target.lookup(key) is None

    def test_batch_matches_single(self, mm_model):
        tgt_a = SimulatedTarget(mm_model, seed=9)
        tgt_b = SimulatedTarget(mm_model, seed=9)
        configs = [({"i": 32, "j": 64, "k": 8}, 10), ({"i": 16, "j": 128, "k": 4}, 20)]
        batch = EvaluationEngine(tgt_a).evaluate_batch(configs)
        singles = [tgt_b.evaluate(tiles, threads) for tiles, threads in configs]
        assert [o.time for o in batch.objectives] == [o.time for o in singles]
        assert batch.new_evaluations == tgt_b.evaluations == len(configs)

    def test_measurement_protocol_used(self, mm_target):
        m = mm_target.measurement({"i": 32, "j": 64, "k": 8}, 10)
        assert m.repetitions == mm_target.protocol.repetitions
        assert min(m.samples) <= m.value <= max(m.samples)


class TestBatchEvaluator:
    def test_preserves_order(self, mm_target):
        be = EvaluationEngine(mm_target)
        configs = [({"i": 32, "j": 64, "k": 8}, t) for t in (1, 10, 40)]
        res = be.evaluate_batch(configs)
        assert [o.threads for o in res.objectives] == [1, 10, 40]
        assert res.new_evaluations == 3

    def test_thread_pool_path(self, mm_target):
        be = EvaluationEngine(mm_target, max_workers=4)
        configs = [({"i": 16 * t, "j": 64, "k": 8}, 10) for t in range(1, 9)]
        res = be.evaluate_batch(configs)
        assert len(res.objectives) == 8


class TestVectorizedNoise:
    """compute_keys derives its noise matrix in one batch; the rows must be
    bit-identical to the per-key oracle."""

    def test_noise_matrix_matches_scalar_rows(self, mm_target):
        keys = [(32, 64, 8, 10), (16, 128, 4, 20), (8, 8, 8, 1), (32, 64, 8, 20)]
        reps = mm_target.protocol.repetitions
        matrix = mm_target._noise_factor_matrix(keys, reps)
        assert matrix.shape == (len(keys), reps)
        for row, key in zip(matrix, keys):
            assert np.array_equal(row, noise_factors(mm_target, key, reps))

    def test_compute_keys_matches_evaluate(self, mm_model):
        """A multi-key chunk measures every key exactly as a one-key
        evaluate() does — time, energy and samples — without touching the
        ledger; evaluate() counts each key once."""
        keys = [(32, 64, 8, 10), (16, 128, 4, 20), (64, 8, 16, 40), (1400, 1, 1, 1)]
        for energy in (False, True):
            tgt_a = SimulatedTarget(mm_model, seed=13, measure_energy=energy)
            tgt_b = SimulatedTarget(mm_model, seed=13, measure_energy=energy)
            batch = tgt_a.compute_keys(keys)
            assert tgt_a.evaluations == 0
            for key, (obj, meas) in zip(keys, batch.records()):
                tiles = dict(zip(("i", "j", "k"), key[:-1]))
                single = tgt_b.evaluate(tiles, key[-1])
                assert obj.time == single.time
                assert obj.resources == single.resources
                assert obj.energy == single.energy
                assert (obj.energy is not None) == energy
                assert meas.value == obj.time
                assert meas.samples == tgt_b.measurement(tiles, key[-1]).samples
            assert tgt_b.evaluations == len(keys)

    def test_compute_keys_empty(self, mm_target):
        assert len(mm_target.compute_keys([])) == 0
        assert mm_target.compute_keys([]).records() == []
