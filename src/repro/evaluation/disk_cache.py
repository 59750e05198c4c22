"""Persistent cross-run measurement cache.

Repeated experiment sweeps, benchmarks and ``repro report`` re-measure
identical (kernel, machine, seed, configuration) points across *process*
runs — the in-memory ledger of :class:`~repro.evaluation.simulator.
SimulatedTarget` cannot help there.  :class:`MeasurementDiskCache` is the
on-disk half: a directory of JSONL shards, one per **target fingerprint**
(a content hash over the region's cost-model signature, the machine, the
noise seed/level, the measurement protocol and the cache schema version),
each shard mapping canonical configuration keys to their measured
(:class:`Objectives`, :class:`Measurement`) pairs.

Design points:

* **correct by keying, not by trust** — a shard is only ever consulted by
  a target whose fingerprint derives from every input that influences a
  measurement, so two targets that could disagree can never share
  entries; bumping :data:`SCHEMA_VERSION` rotates every fingerprint and
  therefore invalidates all previous caches at once;
* **append-only JSONL** — commits append one line per configuration;
  torn or corrupt lines (crashed writer, concurrent appender, bit rot)
  are skipped on load instead of poisoning the shard: undecodable bytes,
  lines that are not a JSON object, and records whose key is not a list
  of integers or whose time, samples or energy are not finite positive
  numbers.  An append after a torn last line starts on a fresh line,
  and a shard whose header names another fingerprint (a damaged header)
  is treated as empty and started afresh on the next store;
* **exact round-trip** — floats are serialized with ``repr``-fidelity
  JSON, so a configuration served from disk is bit-identical to the one
  that was measured, samples included.  The evaluation ledger still
  counts a disk-served configuration towards ``E`` (it is an evaluation
  the optimizer asked for), so reported E is identical between cold and
  warm caches; the engine's ``disk_hits`` counter reports the savings
  separately.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from pathlib import Path

from repro.evaluation.measurements import Measurement
from repro.evaluation.objectives import Objectives

__all__ = ["MeasurementDiskCache", "DEFAULT_CACHE_DIR", "SCHEMA_VERSION"]

#: bump to invalidate every existing on-disk cache entry
SCHEMA_VERSION = 1

#: default cache root used by the CLI's bare ``--cache-dir`` flag
DEFAULT_CACHE_DIR = "~/.cache/repro"


def _positive(x) -> bool:
    """Whether a decoded JSON value is a finite positive number."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x) and x > 0
    except OverflowError:  # an integer beyond the float range
        return False


def _record(d: dict) -> tuple[tuple, tuple[Objectives, Measurement]] | None:
    """A measurement line's (key, (Objectives, Measurement)), or None if
    the line cannot be one the cache wrote."""
    key, value, samples, energy = d.get("k"), d.get("v"), d.get("s"), d.get("e")
    if not (
        isinstance(key, list)
        and key
        and all(isinstance(v, int) and not isinstance(v, bool) for v in key)
        and _positive(value)
        and isinstance(samples, list)
        and samples
        and all(_positive(x) for x in samples)
        and (energy is None or _positive(energy))
    ):
        return None
    key = tuple(key)
    value = float(value)
    obj = Objectives(
        time=value, threads=key[-1], energy=None if energy is None else float(energy)
    )
    return key, (obj, Measurement(value=value, samples=tuple(float(x) for x in samples)))


def _fingerprint(*parts: object) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


class _Shard:
    """One fingerprint's key → (Objectives, Measurement) store."""

    def __init__(self, path: Path, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self._records: dict[tuple, tuple[Objectives, Measurement]] | None = None
        #: whether the file ends inside a line (a torn write)
        self._torn = False
        #: whether the file's header names another fingerprint (a damaged
        #: header: the file's name is the fingerprint)
        self._foreign = False
        self._lock = threading.Lock()

    # -- load -----------------------------------------------------------

    def _load(self) -> dict[tuple, tuple[Objectives, Measurement]]:
        if self._records is not None:
            return self._records
        records: dict[tuple, tuple[Objectives, Measurement]] = {}
        self._foreign = False
        try:
            with open(self.path, "rb") as fh:
                for raw in fh:
                    self._torn = not raw.endswith(b"\n")
                    if self._foreign:
                        continue
                    try:
                        d = json.loads(raw.decode("utf-8"))
                    except (ValueError, RecursionError):
                        continue  # torn, corrupt or undecodable: skip
                    if not isinstance(d, dict):
                        continue
                    if "schema" in d:
                        self._foreign = d.get("fingerprint") != self.fingerprint
                        continue
                    record = _record(d)
                    if record is not None:
                        records[record[0]] = record[1]
        except OSError:
            pass  # no shard yet
        # a foreign header: the shard is treated as empty, and rewritten on
        # the next store so that what it stores can be read back
        self._records = {} if self._foreign else records
        return self._records

    # -- queries --------------------------------------------------------

    def get(self, key: tuple) -> tuple[Objectives, Measurement] | None:
        with self._lock:
            return self._load().get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    # -- commits --------------------------------------------------------

    def put_many(
        self, items: list[tuple[tuple, Objectives, Measurement]]
    ) -> int:
        """Append *items* (skipping keys already present); returns the
        number of new entries written."""
        if not items:
            return 0
        with self._lock:
            records = self._load()
            fresh = [
                (key, obj, meas)
                for key, obj, meas in items
                if key not in records
            ]
            if not fresh:
                return 0
            new_file = self._foreign or not self.path.exists()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w" if new_file else "a", encoding="utf-8") as fh:
                if self._torn and not new_file:
                    fh.write("\n")  # never extend a torn line
                self._torn = self._foreign = False
                if new_file:
                    fh.write(
                        json.dumps(
                            {
                                "schema": SCHEMA_VERSION,
                                "fingerprint": self.fingerprint,
                            }
                        )
                        + "\n"
                    )
                for key, obj, meas in fresh:
                    fh.write(
                        json.dumps(
                            {
                                "k": list(key),
                                "v": meas.value,
                                "s": list(meas.samples),
                                "e": obj.energy,
                            }
                        )
                        + "\n"
                    )
                    records[key] = (obj, meas)
            return len(fresh)


class MeasurementDiskCache:
    """A directory of measurement shards shared by any number of targets.

    :param root: cache directory (created on first write); ``~`` expands.
    :param schema_version: override for tests — a different version
        rotates every fingerprint, modelling a format change.
    """

    def __init__(
        self, root: str | Path, schema_version: int = SCHEMA_VERSION
    ) -> None:
        self.root = Path(root).expanduser()
        self.schema_version = int(schema_version)
        self._shards: dict[str, _Shard] = {}
        self._lock = threading.Lock()
        #: accounting across every attached target
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def shard_for(self, target_fingerprint: str) -> _Shard:
        """The shard a target with this fingerprint reads and writes."""
        fp = _fingerprint(
            "repro-measurement-cache", self.schema_version, target_fingerprint
        )
        with self._lock:
            shard = self._shards.get(fp)
            if shard is None:
                shard = _Shard(self.root / f"{fp}.jsonl", fp)
                self._shards[fp] = shard
        return shard

    # -- target-facing API ----------------------------------------------

    def fetch(
        self, target_fingerprint: str, key: tuple
    ) -> tuple[Objectives, Measurement] | None:
        hit = self.shard_for(target_fingerprint).get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def store_many(
        self,
        target_fingerprint: str,
        items: list[tuple[tuple, Objectives, Measurement]],
    ) -> int:
        written = self.shard_for(target_fingerprint).put_many(items)
        self.stores += written
        return written

    def summary(self) -> str:
        return (
            f"disk-cache root={self.root} hits={self.hits} "
            f"misses={self.misses} stores={self.stores}"
        )
