"""The simulated target platform: configuration → measured objectives.

Combines the deterministic :class:`~repro.evaluation.cost.RegionCostModel`
with run-to-run measurement noise and the median-of-k protocol the paper
uses (§V-B1).  Noise is *hash-derived*: each (configuration, repetition)
pair maps through a keyed blake2b hash to a uniform variate, which the
inverse normal CDF turns into a lognormal factor.  This makes measurements
fully deterministic and independent of evaluation order and of how a batch
is chunked.  Configurations travel as one canonical int64 **key matrix**
(:meth:`SimulatedTarget.config_keys`, row ``tiles in band order + threads``).
:meth:`SimulatedTarget.compute_keys` is the only code that produces a
measurement: it takes times (and energies) from one vectorized cost-model
evaluation per chunk and returns them as :class:`MeasuredKeys` columns,
and single-configuration :meth:`SimulatedTarget.evaluate` is a one-key
chunk.

The target also keeps the evaluation ledger: ``evaluations`` is the metric
``E`` of the paper's Table VI ("the number of points evaluated for obtaining
a solution set").  Results are memoized per configuration — re-querying a
known configuration hits the cache, mirroring an auto-tuner that records
its history.

The ledger is **thread-safe**: measurement itself is pure (see
:meth:`SimulatedTarget.compute_keys`) and all ledger mutation goes through
the locked :meth:`SimulatedTarget.commit_many` (one lock per batch), so
concurrent evaluators —
external callers as well as the
:class:`~repro.evaluation.parallel_eval.EvaluationEngine` worker pool —
can never lose ``E`` increments or double-count a configuration.

Attaching a :class:`~repro.evaluation.disk_cache.MeasurementDiskCache`
extends the memo across *process* runs: before computing, the target
consults the on-disk shard keyed by its :meth:`fingerprint` (model,
machine, seed, noise, protocol); disk hits are committed to the ledger
like any other measurement, so ``E`` is identical between cold and warm
caches.  Targets are picklable for the engine's process backend — the
pickled state carries only the pure measurement function (model + noise
parameters), never the ledger, lock, or cache handle.
"""

from __future__ import annotations

import hashlib
import threading
import time as _time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.evaluation.cost import RegionCostModel
from repro.evaluation.measurements import Measurement, MeasurementProtocol
from repro.evaluation.objectives import Objectives
from repro.util.rng import seed_hasher
from repro.util.stats import ndtri

__all__ = ["SimulatedTarget", "MeasuredKeys"]

_U64 = float(1 << 64)

#: one ledger entry: what the target measured for a canonical key
Record = tuple[Objectives, Measurement]


@dataclass(frozen=True, eq=False)
class MeasuredKeys:
    """What :meth:`SimulatedTarget.compute_keys` measured, one row per key.

    :param values: (n,) medians — the measured times.
    :param samples: (n, repetitions) noisy samples.
    :param energies: (n,) energies, or None when energy is not measured.
    :param threads: (n,) thread counts (the keys' last column).
    """

    values: np.ndarray
    samples: np.ndarray
    energies: np.ndarray | None
    threads: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def records(self) -> list[Record]:
        """The per-key ``(Objectives, Measurement)`` ledger entries."""
        values = self.values.tolist()
        energies = repeat(None) if self.energies is None else self.energies.tolist()
        return [
            (Objectives(time=v, threads=t, energy=e), Measurement(value=v, samples=s))
            for v, t, e, s in zip(
                values, self.threads.tolist(), energies, map(tuple, self.samples.tolist())
            )
        ]


class SimulatedTarget:
    """Evaluates (tile sizes, threads) configurations on a simulated machine.

    :param model: per-region analytical cost model.
    :param seed: base seed of the noise process; same seed → identical
        measurements.
    :param noise: relative measurement jitter (sigma of the lognormal).
    :param protocol: sampling protocol (median of k).
    :param collapsed: worksharing collapse depth forwarded to the model.
    :param disk_cache: optional persistent measurement cache shared
        across process runs (see
        :class:`~repro.evaluation.disk_cache.MeasurementDiskCache`).
    """

    def __init__(
        self,
        model: RegionCostModel,
        seed: int = 0,
        noise: float = 0.015,
        protocol: MeasurementProtocol | None = None,
        collapsed: int | None = None,
        measure_energy: bool = False,
        disk_cache=None,
    ) -> None:
        self.model = model
        self.seed = int(seed)
        self.noise = float(noise)
        self.protocol = protocol or MeasurementProtocol()
        self.collapsed = collapsed
        self.measure_energy = bool(measure_energy)
        self.disk_cache = disk_cache
        #: per band loop, its extent: the upper clip of a tile column
        self._extents = np.array([model.extent[v] for v in model.band], dtype=np.int64)
        self.evaluations = 0
        self._cache: dict[tuple, Objectives] = {}
        self._measurements: dict[tuple, Measurement] = {}
        self._fingerprint: str | None = None
        self._lock = threading.Lock()

    # -- pickling (process backend) ---------------------------------------

    def __getstate__(self) -> dict:
        """Ship only the pure measurement function: model + noise/protocol
        parameters.  The ledger, lock and disk-cache handle stay behind —
        worker processes compute, the parent commits."""
        state = self.__dict__.copy()
        del state["_lock"]
        state["disk_cache"] = None
        state["evaluations"] = 0
        state["_cache"] = {}
        state["_measurements"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def machine(self):
        return self.model.machine

    @property
    def band(self) -> tuple[str, ...]:
        return self.model.band

    def config_keys(self, tiles: np.ndarray, threads: np.ndarray) -> np.ndarray:
        """Canonical (B, len(band) + 1) int64 key matrix: each row holds the
        tile sizes of ``tiles`` (B, len(band)), band order, clipped into
        [1, extent], then the thread count.  The one canonicalization every
        evaluation path shares."""
        keys = np.empty((len(threads), len(self._extents) + 1), dtype=np.int64)
        np.clip(tiles, 1, self._extents, out=keys[:, :-1])
        keys[:, -1] = threads
        return keys

    def pair_keys(self, configs: Sequence[tuple[dict[str, int], int]]) -> np.ndarray:
        """:meth:`config_keys` of ``(tile_sizes, threads)`` pairs; a band loop
        missing from ``tile_sizes`` runs untiled (tile = extent)."""
        extent = self.model.extent
        tiles = np.array(
            [[t.get(v, extent[v]) for v in self.band] for t, _ in configs], dtype=np.int64
        ).reshape(len(configs), len(self.band))
        threads = np.array([thr for _, thr in configs], dtype=np.int64)
        return self.config_keys(tiles, threads)

    def config_key(self, tile_sizes: dict[str, int], threads: int) -> tuple:
        """One configuration's canonical key, as the ledger's tuple."""
        return tuple(self.pair_keys([(tile_sizes, threads)])[0].tolist())

    def fingerprint(self) -> str:
        """Content hash of everything that determines a measurement: the
        cost model's fingerprint plus the noise seed/level, protocol,
        collapse depth and energy mode.  Equal fingerprints → bit-identical
        measurements for every canonical key, which is what licenses the
        persistent disk cache to serve them across processes."""
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            for part in (
                "simulated-target",
                self.model.fingerprint(),
                self.seed,
                self.noise,
                self.protocol,
                self.collapsed,
                self.measure_energy,
            ):
                h.update(repr(part).encode())
                h.update(b"\x00")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # -- persistent cache --------------------------------------------------

    @property
    def has_disk_cache(self) -> bool:
        return self.disk_cache is not None

    def disk_fetch(self, key: tuple) -> Record | None:
        """(Objectives, Measurement) from the persistent cache, or None —
        also for a record this target cannot have written (another sample
        count, or energy where none is measured or none where it is), which
        is then measured afresh."""
        if self.disk_cache is None:
            return None
        hit = self.disk_cache.fetch(self.fingerprint(), key)
        if hit is None:
            return None
        obj, measurement = hit
        if len(measurement.samples) != self.protocol.repetitions or (
            (obj.energy is not None) != self.measure_energy
        ):
            return None
        return hit

    def disk_store_many(
        self, items: list[tuple[tuple, Objectives, Measurement]]
    ) -> int:
        """Persist freshly computed measurements; returns entries written."""
        if self.disk_cache is None or not items:
            return 0
        return self.disk_cache.store_many(self.fingerprint(), items)

    # -- noise ----------------------------------------------------------

    def _noise_factor_matrix(self, keys: Iterable[Sequence[int]], reps: int) -> np.ndarray:
        """(len(keys), reps) lognormal factors in one batch.

        Entry ``(i, rep)`` is ``exp(noise * ndtri(u))`` with ``u`` derived
        from ``spawn_seed(seed, tuple(keys[i]), rep)``: blake2b sees the
        same byte stream as in :func:`~repro.util.rng.spawn_seed`, but the
        seed and each key prefix are hashed once and forked per
        precomputed repetition suffix; the digests are decoded in one
        buffer, and the inverse-CDF / exp transform runs elementwise over
        the whole matrix.
        """
        prefix = seed_hasher(self.seed)
        suffixes = [b"\x00" + repr(rep).encode() for rep in range(reps)]
        digests = []
        for key in keys:
            key_prefix = prefix.copy()
            key_prefix.update(b"\x00" + repr(tuple(key)).encode())
            for suffix in suffixes:
                h = key_prefix.copy()
                h.update(suffix)
                digests.append(h.digest())
        seeds = np.frombuffer(b"".join(digests), dtype="<u8").reshape(-1, reps)
        return np.exp(self.noise * ndtri((seeds + 0.5) / _U64))

    # -- pure computation (no ledger mutation) ----------------------------

    def compute_keys(self, keys: np.ndarray | Sequence[tuple]) -> MeasuredKeys:
        """Measure canonical keys **purely** — the ledger is not touched.

        *keys* is a (n, len(band) + 1) key matrix (or a sequence of key
        tuples).  This is the worker half of the engine's dedup → dispatch
        → commit pipeline: because the noise is hash-derived per (key,
        repetition), the result of a key is independent of evaluation
        order and of how a batch is partitioned across workers, so any
        chunking of *keys* is bit-identical to one bulk call
        (``time_batch`` is row-elementwise).  The result is columns, not
        per-key objects; callers record it via :meth:`commit_many`.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(len(keys), len(self._extents) + 1)
        tiles, threads = keys[:, :-1], keys[:, -1]
        reps = self.protocol.repetitions
        if not len(keys):
            energies = np.empty(0) if self.measure_energy else None
            return MeasuredKeys(np.empty(0), np.empty((0, reps)), energies, threads)
        if self.measure_energy:
            true_times, true_energies = self.model.energy_batch(
                tiles, threads, collapsed=self.collapsed
            )
        else:
            true_times = self.model.time_batch(tiles, threads, collapsed=self.collapsed)
        overhead = self.protocol.overhead_s
        if overhead > 0:
            # the simulated pipeline latency is per configuration no matter
            # how the batch is chunked
            _time.sleep(overhead * len(keys))
        # one hash-derived factor matrix + one median sweep for the chunk
        samples = true_times[:, None] * self._noise_factor_matrix(keys.tolist(), reps)
        values = np.median(samples, axis=1)
        energies = None
        if self.measure_energy:
            # energy measurements share the run's jitter: scale the model
            # energy by the same median noise factor as the time
            energies = true_energies * (values / true_times)
        return MeasuredKeys(values, samples, energies, threads)

    # -- the single-writer ledger ------------------------------------------

    def lookup(self, key: tuple) -> Objectives | None:
        """Memoized result of a canonical key, or None."""
        with self._lock:
            return self._cache.get(key)

    def lookup_many(self, keys: Iterable[tuple]) -> list[Objectives]:
        """The recorded objectives of known keys, in order — one lock."""
        with self._lock:
            cache = self._cache
            return [cache[key] for key in keys]

    def missing(self, keys: Iterable[tuple]) -> list[tuple]:
        """The keys the ledger has not recorded, in order — one lock."""
        with self._lock:
            cache = self._cache
            return [key for key in keys if key not in cache]

    def commit_many(self, keys: Sequence[tuple], records: Sequence[Record]) -> int:
        """Record computed measurements in the ledger under one lock;
        returns how many keys were new (and therefore counted towards
        ``E``).  Atomic per key: a key can never be counted twice, and no
        increment is ever lost.

        :raises ValueError: if an objective is NaN or infinite — the model
            of a degenerate problem, which no optimizer can rank.  Nothing
            of the batch is recorded then.
        """
        objectives = np.array(
            [(o.time, 0.0 if o.energy is None else o.energy) for o, _ in records],
            dtype=float,
        ).reshape(len(records), 2)
        bad = ~np.isfinite(objectives).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"non-finite objectives for configuration {keys[i]}: {records[i][0]}"
            )
        with self._lock:
            cache, measurements = self._cache, self._measurements
            before = len(cache)
            for key, (obj, measurement) in zip(keys, records):
                if key not in cache:
                    cache[key] = obj
                    measurements[key] = measurement
            new = len(cache) - before
            self.evaluations += new
        return new

    def commit(self, key: tuple, obj: Objectives, measurement: Measurement) -> bool:
        """:meth:`commit_many` of one key; returns whether it was new."""
        return self.commit_many([key], [(obj, measurement)]) == 1

    # -- single-configuration path ---------------------------------------

    def evaluate(self, tile_sizes: dict[str, int], threads: int) -> Objectives:
        """Measure a configuration (median of k noisy runs); memoized.

        A one-key :meth:`compute_keys` chunk.  Safe to call from multiple
        threads: computation happens outside the lock (it is pure and
        deterministic, so a racing double-compute yields the same value)
        and :meth:`commit_many` arbitrates the ledger.
        """
        key = self.config_key(tile_sizes, threads)
        hit = self.lookup(key)
        if hit is not None:
            return hit
        disk = self.disk_fetch(key)
        if disk is not None:
            self.commit(key, *disk)
            return self.lookup(key)
        [record] = self.compute_keys([key]).records()
        self.commit(key, *record)
        self.disk_store_many([(key, *record)])
        return self.lookup(key)

    # -- introspection ----------------------------------------------------

    def true_time(self, tile_sizes: dict[str, int], threads: int) -> float:
        """Noise-free model time (not counted as an evaluation)."""
        return self.model.time(tile_sizes, threads, collapsed=self.collapsed)

    def measurement(self, tile_sizes: dict[str, int], threads: int) -> Measurement:
        self.evaluate(tile_sizes, threads)
        return self._measurements[self.config_key(tile_sizes, threads)]

    def reset_ledger(self) -> None:
        """Clear the evaluation count and cache (fresh experiment run)."""
        with self._lock:
            self.evaluations = 0
            self._cache.clear()
            self._measurements.clear()
