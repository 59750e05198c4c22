"""Tests for the persistent cross-run measurement cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.evaluation import (
    EvaluationEngine,
    MeasurementDiskCache,
    SimulatedTarget,
)
from repro.experiments.setups import make_setup
from repro.machine.model import BARCELONA, WESTMERE


@pytest.fixture(scope="module")
def mm_model():
    return make_setup("mm", WESTMERE).model


def _target(model, tmp_root=None, seed=7, schema=None, **kw):
    cache = None
    if tmp_root is not None:
        cache = (
            MeasurementDiskCache(tmp_root)
            if schema is None
            else MeasurementDiskCache(tmp_root, schema_version=schema)
        )
    return SimulatedTarget(model, seed=seed, disk_cache=cache, **kw)


def _configs(target, n=60, seed=1):
    rng = np.random.default_rng(seed)
    return [
        (
            {v: int(rng.integers(1, 300)) for v in target.band},
            int(rng.choice([1, 2, 4, 8])),
        )
        for _ in range(n)
    ]


class TestRoundTrip:
    def test_two_fresh_targets_share_measurements(self, mm_model, tmp_path):
        """The acceptance scenario: a second fresh target (a new 'process
        run') serves every configuration from disk, bit-identically, with
        zero model evaluations dispatched and E unchanged."""
        configs = _configs(_target(mm_model))

        cold = _target(mm_model, tmp_path)
        e_cold = EvaluationEngine(cold, max_workers=4)
        r_cold = e_cold.evaluate_batch(configs)
        assert e_cold.stats.disk_hits == 0
        assert e_cold.stats.dispatched > 0

        warm = _target(mm_model, tmp_path)
        e_warm = EvaluationEngine(warm, max_workers=4)
        r_warm = e_warm.evaluate_batch(configs)
        assert r_warm.objectives == r_cold.objectives
        assert e_warm.stats.dispatched == 0
        assert e_warm.stats.disk_hits == e_cold.stats.dispatched
        # E is identical cold vs warm — disk hits still count as
        # evaluations the optimizer asked for
        assert warm.evaluations == cold.evaluations
        s = e_warm.stats
        assert s.configs == s.dispatched + s.cache_hits + s.deduped + s.disk_hits

    def test_matches_uncached_target_exactly(self, mm_model, tmp_path):
        configs = _configs(_target(mm_model))
        plain = _target(mm_model)
        ref = EvaluationEngine(plain).evaluate_batch(configs)

        # fill the cache through the single-configuration path, read it
        # back through the engine
        filler = _target(mm_model, tmp_path)
        for tiles, threads in configs:
            filler.evaluate(tiles, threads)
        warm = _target(mm_model, tmp_path)
        got = EvaluationEngine(warm, max_workers=2).evaluate_batch(configs)
        assert got.objectives == ref.objectives

    def test_scalar_evaluate_uses_disk(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path)
        obj1 = t1.evaluate({"i": 64, "j": 64, "k": 8}, 4)
        t2 = _target(mm_model, tmp_path)
        obj2 = t2.evaluate({"i": 64, "j": 64, "k": 8}, 4)
        assert obj1 == obj2
        assert t2.disk_cache.hits == 1
        assert t2.evaluations == 1

    def test_samples_round_trip_exactly(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path)
        m1 = t1.measurement({"i": 50, "j": 50, "k": 50}, 8)
        t2 = _target(mm_model, tmp_path)
        m2 = t2.measurement({"i": 50, "j": 50, "k": 50}, 8)
        assert m1 == m2  # value and every sample, bit-identical


class TestKeying:
    def test_schema_version_invalidates(self, mm_model, tmp_path):
        configs = _configs(_target(mm_model), n=20)
        EvaluationEngine(_target(mm_model, tmp_path)).evaluate_batch(configs)
        bumped = _target(mm_model, tmp_path, schema=2)
        e = EvaluationEngine(bumped)
        e.evaluate_batch(configs)
        assert e.stats.disk_hits == 0
        assert e.stats.dispatched == len(
            {bumped.config_key(t, thr) for t, thr in configs}
        )

    def test_seed_separates_shards(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path, seed=7)
        t1.evaluate({"i": 32, "j": 32, "k": 32}, 4)
        t2 = _target(mm_model, tmp_path, seed=8)
        t2.evaluate({"i": 32, "j": 32, "k": 32}, 4)
        assert t2.disk_cache.hits == 0  # different noise seed, new shard

    def test_noise_and_energy_separate_shards(self, mm_model, tmp_path):
        base = _target(mm_model, tmp_path)
        base.evaluate({"i": 32, "j": 32, "k": 32}, 4)
        for kw in ({"noise": 0.05}, {"measure_energy": True}):
            other = _target(mm_model, tmp_path, **kw)
            other.evaluate({"i": 32, "j": 32, "k": 32}, 4)
            assert other.disk_cache.hits == 0, kw

    def test_machine_separates_fingerprints(self, mm_model):
        other = make_setup("mm", BARCELONA).model
        assert mm_model.fingerprint() != other.fingerprint()

    def test_model_fingerprint_is_stable(self, mm_model):
        # rebuilt model of the same setup → same fingerprint (this is what
        # lets a second process find the first one's shard)
        rebuilt = make_setup("mm", WESTMERE).model
        assert mm_model.fingerprint() == rebuilt.fingerprint()

    def test_target_fingerprint_depends_on_inputs(self, mm_model):
        base = SimulatedTarget(mm_model, seed=7)
        assert base.fingerprint() == SimulatedTarget(mm_model, seed=7).fingerprint()
        assert base.fingerprint() != SimulatedTarget(mm_model, seed=8).fingerprint()
        assert (
            base.fingerprint()
            != SimulatedTarget(mm_model, seed=7, noise=0.1).fingerprint()
        )


class TestRobustness:
    def test_corrupt_lines_are_skipped(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path)
        t1.evaluate({"i": 32, "j": 32, "k": 32}, 4)
        t1.evaluate({"i": 64, "j": 64, "k": 64}, 8)
        (shard_path,) = list(tmp_path.glob("*.jsonl"))
        with open(shard_path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write('{"k": "not-a-list", "v": 1.0, "s": []}\n')
        t2 = _target(mm_model, tmp_path)
        assert t2.evaluate({"i": 32, "j": 32, "k": 32}, 4) == t1.lookup(
            t1.config_key({"i": 32, "j": 32, "k": 32}, 4)
        )
        assert t2.disk_cache.hits == 1

    def test_missing_directory_is_fine(self, mm_model, tmp_path):
        t = _target(mm_model, tmp_path / "does" / "not" / "exist" / "yet")
        t.evaluate({"i": 32, "j": 32, "k": 32}, 4)
        assert t.disk_cache.stores == 1

    def test_store_is_idempotent(self, mm_model, tmp_path):
        cache = MeasurementDiskCache(tmp_path)
        t = SimulatedTarget(mm_model, seed=7, disk_cache=cache)
        t.evaluate({"i": 32, "j": 32, "k": 32}, 4)
        key = t.config_key({"i": 32, "j": 32, "k": 32}, 4)
        item = (key, t.lookup(key), t.measurement({"i": 32, "j": 32, "k": 32}, 4))
        assert t.disk_store_many([item]) == 0  # already present

    def test_energy_round_trips(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path, measure_energy=True)
        obj1 = t1.evaluate({"i": 48, "j": 48, "k": 48}, 8)
        assert obj1.energy is not None
        t2 = _target(mm_model, tmp_path, measure_energy=True)
        obj2 = t2.evaluate({"i": 48, "j": 48, "k": 48}, 8)
        assert obj2 == obj1 and obj2.energy == obj1.energy


class TestCorruptShardLines:
    """Every kind of corrupt line is skipped on load: the configuration it
    claims is measured afresh, bit-identically, and the good lines are
    still served."""

    GOOD = ({"i": 32, "j": 32, "k": 32}, 4)
    BAD = ({"i": 64, "j": 64, "k": 64}, 8)

    def _served(self, mm_model, tmp_path, line: bytes, **kw) -> SimulatedTarget:
        """Fill a shard with GOOD, append *line* (formatted with BAD's key),
        then evaluate both on a fresh target and check the outcome."""
        filler = _target(mm_model, tmp_path, **kw)
        filler.evaluate(*self.GOOD)
        (shard_path,) = list(tmp_path.glob("*.jsonl"))
        key = list(filler.config_key(*self.BAD))
        with open(shard_path, "ab") as fh:
            fh.write(line.replace(b"KEY", json.dumps(key).encode()) + b"\n")
        fresh = _target(mm_model, tmp_path, **kw)
        assert fresh.evaluate(*self.GOOD) == filler.lookup(filler.config_key(*self.GOOD))
        assert fresh.disk_cache.hits == 1
        expected = _target(mm_model, **kw).evaluate(*self.BAD)
        engine = EvaluationEngine(fresh)
        batch = engine.evaluate_batch([self.BAD])
        assert batch.objectives == (expected,)
        assert engine.stats.disk_hits == 0 and engine.stats.dispatched == 1
        return fresh

    @pytest.mark.parametrize("line", [b"5", b"null", b"[1, 2]", b'"text"', b"true"])
    def test_non_object_line(self, mm_model, tmp_path, line):
        self._served(mm_model, tmp_path, line)

    def test_non_utf8_bytes(self, mm_model, tmp_path):
        self._served(mm_model, tmp_path, b'{"k": KEY, "v": 1.0, "s": [1.0]}\xff\xfe')

    @pytest.mark.parametrize("value", [b"NaN", b"Infinity", b"-Infinity", b"1" + b"0" * 400])
    def test_non_finite_value(self, mm_model, tmp_path, value):
        self._served(
            mm_model, tmp_path,
            b'{"k": KEY, "v": ' + value + b', "s": [1.0, 1.0, 1.0, 1.0, 1.0], "e": null}',
        )

    @pytest.mark.parametrize("value", [b"-1", b"0", b"-1e-3"])
    def test_non_positive_value(self, mm_model, tmp_path, value):
        self._served(
            mm_model, tmp_path,
            b'{"k": KEY, "v": ' + value + b', "s": [1.0, 1.0, 1.0, 1.0, 1.0], "e": null}',
        )

    def test_non_positive_sample_or_energy(self, mm_model, tmp_path):
        self._served(
            mm_model, tmp_path,
            b'{"k": KEY, "v": 1.0, "s": [1.0, -1.0, 1.0, 1.0, 1.0], "e": null}',
        )
        self._served(
            mm_model, tmp_path / "energy",
            b'{"k": KEY, "v": 1.0, "s": [1.0, 1.0, 1.0, 1.0, 1.0], "e": NaN}',
            measure_energy=True,
        )

    @pytest.mark.parametrize("samples", [b"[]", b"[1.0, 1.0]", b"[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]"])
    def test_samples_of_the_wrong_length(self, mm_model, tmp_path, samples):
        self._served(
            mm_model, tmp_path, b'{"k": KEY, "v": 1.0, "s": ' + samples + b', "e": null}'
        )

    def test_energy_presence_must_match_the_target(self, mm_model, tmp_path):
        # an energy target never wrote a line without energy
        self._served(
            mm_model, tmp_path,
            b'{"k": KEY, "v": 1.0, "s": [1.0, 1.0, 1.0, 1.0, 1.0], "e": null}',
            measure_energy=True,
        )

    @pytest.mark.parametrize(
        "line",
        [b'{"k": [64, 64, true, 8], "v": 1.0, "s": [1.0]}', b'{"k": [64.0, 64, 64, 8], "v": 1.0}',
         b'{"k": [], "v": 1.0, "s": [1.0]}', b'{"k": KEY, "v": "1.0", "s": [1.0]}'],
    )
    def test_malformed_fields(self, mm_model, tmp_path, line):
        self._served(mm_model, tmp_path, line)

    def test_append_after_a_torn_line_starts_a_new_line(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path)
        t1.evaluate(*self.GOOD)
        (shard_path,) = list(tmp_path.glob("*.jsonl"))
        with open(shard_path, "a", encoding="utf-8") as fh:
            fh.write('{"k": [1, 2')  # a writer died mid-line
        t2 = _target(mm_model, tmp_path)
        t2.evaluate(*self.BAD)  # loads the torn shard, then appends
        t3 = _target(mm_model, tmp_path)
        assert t3.evaluate(*self.BAD) == t2.lookup(t2.config_key(*self.BAD))
        assert t3.disk_cache.hits == 1


class TestDamagedHeader:
    def test_shard_with_a_foreign_header_is_rewritten(self, mm_model, tmp_path):
        """A damaged header hides the shard's records; the next store starts
        the shard afresh, so later runs are served from disk again instead
        of recomputing and appending unreadable lines forever."""
        configs = _configs(_target(mm_model), n=20)
        EvaluationEngine(_target(mm_model, tmp_path)).evaluate_batch(configs)
        (shard_path,) = list(tmp_path.glob("*.jsonl"))
        lines = shard_path.read_text().splitlines()
        lines[0] = lines[0].replace('"fingerprint": "', '"fingerprint": "x')
        shard_path.write_text("\n".join(lines) + "\n")

        damaged = EvaluationEngine(_target(mm_model, tmp_path))
        first = damaged.evaluate_batch(configs)
        assert damaged.stats.disk_hits == 0
        warm = EvaluationEngine(_target(mm_model, tmp_path))
        again = warm.evaluate_batch(configs)
        assert warm.stats.dispatched == 0
        assert warm.stats.disk_hits == damaged.stats.dispatched
        assert again.objectives == first.objectives
        assert len(shard_path.read_text().splitlines()) == 1 + damaged.stats.dispatched


class TestPickling:
    def test_target_pickles_without_ledger(self, mm_model, tmp_path):
        import pickle

        t = _target(mm_model, tmp_path)
        t.evaluate({"i": 32, "j": 32, "k": 32}, 4)
        clone = pickle.loads(pickle.dumps(t))
        assert clone.evaluations == 0
        assert clone.disk_cache is None
        assert clone.lookup(t.config_key({"i": 32, "j": 32, "k": 32}, 4)) is None
        # the pure measurement function survives intact
        key = t.config_key({"i": 32, "j": 32, "k": 32}, 4)
        assert clone.compute_keys([key]).records() == t.compute_keys([key]).records()
