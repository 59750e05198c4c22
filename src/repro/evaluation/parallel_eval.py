"""The parallel evaluation engine.

Paper §III-A: "multiple independent configurations are generated, compiled
and if possible evaluated in parallel on distinct instances of the targeted
platform", and §IV notes the evaluator "exploits the availability of
multiple cores ... to generate, compile and execute code versions in
parallel".  :class:`EvaluationEngine` is that component.  It has one
pipeline, a **session** of batches: each batch is one generation's
configurations against one target, and several regions' batches — each
against its *own* target — may be in flight at once (paper §III-A: one
program execution measures every simultaneously tuned region).  A batch
runs through three stages:

1. **dedup** — a batch arrives as one canonical int64 key matrix (the
   target's ``config_keys``; ``(tile_sizes, threads)`` pairs are converted
   to one first) and is deduplicated against the target's memo cache in
   one locked pass (``cache_hits``), within the batch (``deduped``),
   against the session's results and in-flight chunks by target
   fingerprint (``shared_hits``: equal fingerprints measure identically,
   so one computation serves every region that shares one) and against
   the persistent disk cache (``disk_hits``), so each unique
   configuration is computed at most once;
2. **dispatch** — the cold remainder is sharded into ``ceil(B/workers)``
   **chunks** (``max_workers="auto"`` sizes the pool at three quarters of
   the visible cores, the MITuna default), each one *vectorized*
   ``compute_keys(chunk)`` call, so the NumPy batch path is never traded
   away for parallelism.  One worker, or a batch that fits one chunk,
   computes inline in the caller's thread.  Workers are *pure*: they
   return the chunk's measured columns without touching a ledger.
   ``backend="thread"`` shares the model; ``backend="process"`` ships each
   chunk's target (only its pure measurement state pickles) to a
   ``ProcessPoolExecutor`` for true parallelism;
3. **commit** — once every key a batch needs has landed, the engine
   commits it in batch order through the target's single-writer
   ``commit_many`` (one lock per batch), then persists the chunks the
   batch computed to the disk cache.  Because measurement noise is
   hash-derived per key, results are bit-identical to the serial path and
   the ``E`` metric (paper Table VI) stays exact however many workers
   race.

:meth:`EvaluationEngine.evaluate_batch` submits one batch for the engine's
own target and drains it; :meth:`~EvaluationEngine.fused_submit` /
:meth:`~EvaluationEngine.fused_wait` let the cross-region scheduler in
:mod:`repro.driver.multiregion` keep several regions' batches in flight.

One fault policy covers every pooled chunk, after the timeout / error /
resume contract of a multi-process auto-tuner: a wall-clock deadline per
attempt (``timeout_s``, counted from dispatch, so n stragglers submitted
together cost one timeout, not n), ``retries`` extra attempts with linear
backoff, then a **per-key** serial rescue in the caller's thread; an engine
whose batches need the rescue ``degrade_after`` times in a row stops using
the pool.  A worker cannot be killed, so a pool holding an abandoned
(timed-out) worker is retired and the next dispatch builds a fresh one.
:class:`FaultPolicy` injects failures for testing; :class:`EngineStats`
records the accounting.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, fields

import numpy as np

from repro.evaluation.objectives import Objectives
from repro.evaluation.simulator import MeasuredKeys, Record, SimulatedTarget
from repro.obs import DISABLED, Observability

__all__ = [
    "EvaluationEngine",
    "EngineStats",
    "BatchResult",
    "FaultPolicy",
    "FlakyFaultPolicy",
    "InjectedFault",
    "EvaluationError",
    "auto_workers",
]


class InjectedFault(RuntimeError):
    """Raised by fault policies to simulate a worker failure."""


class EvaluationError(RuntimeError):
    """A configuration could not be evaluated even after retries and the
    serial rescue path."""


def auto_workers() -> int:
    """Default worker-pool width: ``nproc * 3 / 4`` (MITuna's default),
    never below 1."""
    return max(1, (os.cpu_count() or 4) * 3 // 4)


class FaultPolicy:
    """Injectable fault hook for testing the engine's robustness layer.

    :meth:`check` is called before every computation attempt.  The base
    policy never fails; subclasses raise (or sleep, to trip the timeout
    path) to simulate flaky compilers, crashed runs, or hung targets.
    """

    def check(self, key: tuple, attempt: int, serial: bool) -> None:
        """Called with the canonical config key, the 1-based attempt number
        and whether the attempt runs serially in the caller's thread (the
        inline/rescue/degraded path) rather than on the worker pool."""


@dataclass
class FlakyFaultPolicy(FaultPolicy):
    """Deterministic fault injection.

    :param fail_attempts: raise :class:`InjectedFault` on pooled attempts
        ``<= fail_attempts`` (0 disables).
    :param slow_attempts: sleep ``delay_s`` on pooled attempts
        ``<= slow_attempts`` — combined with an engine timeout this
        exercises the timeout/retry path.
    :param keys: restrict the faults to these canonical keys (None = all).
    :param fail_serial: also fail serial (rescue) attempts — makes the
        failure terminal.
    """

    fail_attempts: int = 0
    slow_attempts: int = 0
    delay_s: float = 0.0
    keys: frozenset | None = None
    fail_serial: bool = False
    calls: list = field(default_factory=list)

    def check(self, key: tuple, attempt: int, serial: bool) -> None:
        if self.keys is not None and key not in self.keys:
            return
        self.calls.append((key, attempt, serial))
        if serial:
            if self.fail_serial:
                raise InjectedFault(f"injected serial fault for {key}")
            return
        if attempt <= self.slow_attempts and self.delay_s > 0:
            time.sleep(self.delay_s)
        if attempt <= self.fail_attempts:
            raise InjectedFault(f"injected fault for {key} (attempt {attempt})")


@dataclass
class EngineStats:
    """Evaluation-engine accounting (cumulative or per batch).

    ``configs = dispatched + cache_hits + deduped + disk_hits +
    shared_hits`` always holds; ``E`` grows by exactly
    ``new_evaluations`` (disk hits commit to the ledger too, so E is
    identical between cold and warm disk caches).
    """

    batches: int = 0
    configs: int = 0
    #: unique configurations actually computed
    dispatched: int = 0
    #: configurations served from the target's memo cache
    cache_hits: int = 0
    #: duplicate configurations within batches (computed once)
    deduped: int = 0
    #: configurations served from the persistent on-disk cache
    disk_hits: int = 0
    #: configurations served by another batch's computation in the
    #: session (equal target fingerprints ⇒ shared measurement)
    shared_hits: int = 0
    #: ledger commits (== dispatched unless an external caller raced)
    new_evaluations: int = 0
    #: retry attempts after pooled failures/timeouts
    retried: int = 0
    #: pooled attempts abandoned after the per-attempt timeout
    timeouts: int = 0
    #: configurations rescued serially after all pooled attempts failed
    failed: int = 0
    #: batches evaluated serially because the engine degraded
    serial_fallbacks: int = 0
    wall_time_s: float = 0.0

    def merge(self, other: "EngineStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def summary(self) -> str:
        return (
            f"batches={self.batches} configs={self.configs} "
            f"dispatched={self.dispatched} cache_hits={self.cache_hits} "
            f"deduped={self.deduped} disk_hits={self.disk_hits} "
            f"shared_hits={self.shared_hits} retried={self.retried} "
            f"failed={self.failed} wall={self.wall_time_s:.3f}s"
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: (metric, EngineStats field, help) — one counter per accounting field
_COUNTERS = (
    ("repro_engine_batches_total", "batches", "evaluation batches processed"),
    ("repro_engine_configs_total", "configs", "configurations submitted"),
    ("repro_engine_dispatched_total", "dispatched", "unique configurations computed"),
    ("repro_engine_cache_hits_total", "cache_hits",
     "configurations served from the memo cache"),
    ("repro_engine_deduped_total", "deduped", "in-batch duplicate configurations"),
    ("repro_engine_disk_hits_total", "disk_hits",
     "configurations served from the persistent disk cache"),
    ("repro_engine_shared_hits_total", "shared_hits",
     "configurations served by a sibling region's computation"),
    ("repro_engine_retries_total", "retried", "retry attempts after pooled failures"),
    ("repro_engine_timeouts_total", "timeouts", "pooled attempts abandoned on timeout"),
    ("repro_engine_failed_total", "failed", "configurations rescued serially"),
    ("repro_engine_serial_fallbacks_total", "serial_fallbacks",
     "batches run serially after degradation"),
)


@dataclass(eq=False)
class BatchResult:
    """One batch of the engine's session.

    :meth:`EvaluationEngine.fused_submit` returns it in flight;
    :meth:`EvaluationEngine.evaluate_batch` and
    :meth:`EvaluationEngine.fused_wait` hand it back committed, with
    :attr:`objectives` in input order and :attr:`stats` the batch's
    accounting.

    :param region: caller-chosen label (trace events carry it).
    :param fp: the target's measurement fingerprint — the cross-batch
        dedup key.
    """

    target: SimulatedTarget
    region: str
    fp: str
    #: the submitted (B, len(band) + 1) canonical key matrix
    matrix: np.ndarray
    #: its rows as the ledger's key tuples, input order
    keys: list[tuple]
    #: the unique ledger-miss keys this batch commits, in batch order
    order: list[tuple]
    stats: EngineStats
    t0: float
    #: keys this batch computed itself (persisted to disk after commit)
    compute: list[tuple] = field(default_factory=list)
    #: chunk landings this batch still waits for (ready at 0)
    pending: int = 0
    #: whether the batch dispatched chunks to the pool
    pooled: bool = False
    objectives: tuple[Objectives, ...] | None = None
    done: bool = False

    @property
    def new_evaluations(self) -> int:
        return self.stats.new_evaluations


@dataclass(eq=False)
class _Chunk:
    """One pooled ``compute_keys`` call and the batches waiting on it."""

    keys: tuple[tuple, ...]
    owner: BatchResult
    attempt: int = 1
    deadline: float = math.inf
    #: the pool the current attempt was submitted to
    executor: object = None
    #: sibling batches that found one of these keys in flight, one entry
    #: per key
    waiters: list[BatchResult] = field(default_factory=list)


class EvaluationEngine:
    """Parallel, fault-tolerant batch evaluator over a target platform.

    :param target: the (simulated) platform :meth:`evaluate_batch`
        measures; must provide ``pair_keys``, ``missing``, pure
        ``compute_keys``, single-writer ``commit_many`` and
        ``lookup_many``.
    :param max_workers: worker pool width; ``"auto"`` →
        :func:`auto_workers`, 1 (the default) computes inline through the
        same pipeline.
    :param timeout_s: wall-time limit per pooled *attempt*, counted from
        dispatch (a worker cannot be killed, but its result is abandoned,
        its pool retired and its chunk retried).  None disables.
    :param retries: extra attempts after a failed/timed-out pooled attempt.
    :param backoff_s: linear backoff between retry rounds.
    :param degrade_after: after this many consecutive batches needing the
        serial rescue, the engine stops using the pool entirely.
    :param fault_policy: test hook, see :class:`FaultPolicy`.
    :param obs: observability handle — every :meth:`evaluate_batch` is an
        ``engine.batch`` span and the accounting is folded into metric
        counters/histograms; the default disabled handle is free.
    :param backend: ``"thread"`` (default) shares the model between
        workers; ``"process"`` ships each chunk's target to a
        ``ProcessPoolExecutor`` (incompatible with ``fault_policy``, whose
        in-memory call log cannot cross processes).
    :param chunk_size: configurations per worker chunk; None (default)
        uses ``ceil(B/workers)`` so one vectorized call per worker covers
        the batch.  ``chunk_size=1`` reproduces per-key dispatch (the
        benchmark baseline).  Any value is bit-identical.
    """

    def __init__(
        self,
        target: SimulatedTarget,
        max_workers: int | str = 1,
        timeout_s: float | None = None,
        retries: int = 2,
        backoff_s: float = 0.02,
        degrade_after: int = 2,
        fault_policy: FaultPolicy | None = None,
        obs: Observability | None = None,
        backend: str = "thread",
        chunk_size: int | None = None,
    ) -> None:
        if max_workers == "auto" or max_workers is None:
            max_workers = auto_workers()
        if int(max_workers) < 1:
            raise ValueError("max_workers must be >= 1 (or 'auto')")
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
        if backend == "process" and fault_policy is not None:
            raise ValueError(
                "backend='process' cannot inject faults: the policy's state "
                "lives in this process — use the thread backend for fault tests"
            )
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1 (or None for auto)")
        self.target = target
        self.max_workers = int(max_workers)
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.degrade_after = int(degrade_after)
        self.fault_policy = fault_policy
        self.obs = obs or DISABLED
        self.backend = backend
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        #: cumulative accounting across all batches
        self.stats = EngineStats()
        self._degraded = False
        self._strikes = 0
        # session state, owned by the coordinating thread: workers only run
        # the pure compute_keys, so only the targets' commits need locks
        self._executor = None
        self._pending: list[BatchResult] = []
        self._futures: dict = {}
        #: fingerprint → {key: (Objectives, Measurement)}, kept until reset
        self._fused_results: dict[str, dict[tuple, tuple]] = {}
        #: fingerprint → {key: in-flight chunk computing it}
        self._inflight: dict[str, dict[tuple, _Chunk]] = {}

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether repeated worker failures forced permanent serial mode."""
        return self._degraded

    def reset_faults(self) -> None:
        """Re-arm the worker pool after degradation."""
        self._degraded = False
        self._strikes = 0

    def close(self) -> None:
        """Release the worker pool and drop the session state; the
        accounting in :attr:`stats` stays readable.  Idle workers are
        joined, so no thread or process outlives the call."""
        if self._executor is not None:
            self._executor.shutdown(wait=not self._futures, cancel_futures=True)
            self._executor = None
        self.fused_reset()

    # ------------------------------------------------------------------

    def evaluate_batch(self, configs) -> BatchResult:
        """Evaluate a canonical key matrix (the target's ``config_keys``)
        or ``[(tile_sizes, threads), ...]`` pairs against the engine's
        target — a one-batch session — and return the committed batch.

        Results are bit-identical for any ``max_workers`` and the ledger's
        ``E`` grows by exactly the number of configurations that were new
        to the target.
        """
        if self._pending:
            raise RuntimeError("evaluate_batch called with session batches in flight")
        with self.obs.tracer.span(
            "engine.batch", configs=len(configs), workers=self.max_workers
        ) as span:
            try:
                batch = self.fused_submit(self.target, configs)
                self._drain()
            except BaseException:
                self.fused_reset()
                raise
            span.set(**batch.stats.as_dict())
        return batch

    def _observe_batch(self, batch: EngineStats) -> None:
        """Fold one batch's accounting into the metrics registry."""
        m = self.obs.metrics
        for name, attr, help_text in _COUNTERS:
            m.counter(name, help_text).inc(getattr(batch, attr))
        m.gauge(
            "repro_engine_degraded", "1 while the engine is in permanent serial mode"
        ).set(int(self._degraded))
        m.histogram(
            "repro_engine_batch_seconds", "wall time per evaluation batch"
        ).observe(batch.wall_time_s)

    # -- the session ---------------------------------------------------------

    @property
    def fused_active(self) -> bool:
        """Whether the session has undrained batches."""
        return bool(self._pending)

    def fused_reset(self) -> None:
        """Drop all session state (pending batches, shared results).

        Call between independent runs; the worker pool itself survives
        until :meth:`close`."""
        self._pending.clear()
        self._futures.clear()
        self._fused_results.clear()
        self._inflight.clear()

    def fused_submit(self, target: SimulatedTarget, configs, region: str = "") -> BatchResult:
        """Enqueue one region's batch — a key matrix from *target*'s
        ``config_keys``, or ``(tile_sizes, threads)`` pairs — into the
        session.

        Dedups against the batch itself, *target*'s ledger, the session's
        results and in-flight chunks, and the disk cache, then dispatches
        the cold remainder.  Returns at once — :meth:`fused_wait` delivers
        the batch when every key it needs has landed.
        """
        t0 = time.perf_counter()
        fp = target.fingerprint()
        configs = (
            np.asarray(configs, dtype=np.int64)
            if isinstance(configs, np.ndarray)
            else target.pair_keys(configs)
        )
        keys = list(map(tuple, configs.tolist()))
        misses = target.missing(keys)
        order = list(dict.fromkeys(misses))
        stats = EngineStats(
            batches=1,
            configs=len(keys),
            cache_hits=len(keys) - len(misses),
            deduped=len(misses) - len(order),
        )
        batch = BatchResult(target, region, fp, configs, keys, order, stats, t0)

        results = self._fused_results.setdefault(fp, {})
        inflight = self._inflight.get(fp)
        disk = target.has_disk_cache
        compute = batch.compute
        for key in order:
            if key in results:
                stats.shared_hits += 1
            elif inflight and key in inflight:
                stats.shared_hits += 1
                inflight[key].waiters.append(batch)
                batch.pending += 1
            elif disk and (hit := target.disk_fetch(key)) is not None:
                results[key] = hit
                stats.disk_hits += 1
            else:
                compute.append(key)
        stats.dispatched = len(compute)
        if compute:
            self._dispatch(batch, compute, results)
        self._pending.append(batch)
        return batch

    def fused_wait(self) -> list[BatchResult]:
        """Block until at least one pending batch is complete; commit and
        return every complete batch (submission order).  Returns ``[]``
        only when nothing is pending."""
        t0 = time.perf_counter()
        ready = self._drain()
        m = self.obs.metrics
        m.gauge(
            "repro_scheduler_inflight_chunks",
            "fused-session worker chunks currently in flight",
        ).set(len(self._futures))
        m.histogram(
            "repro_scheduler_drain_seconds",
            "coordinator wait time per fused drain",
        ).observe(time.perf_counter() - t0)
        for batch in ready:
            s = batch.stats
            self.obs.tracer.event(
                "scheduler.batch",
                region=batch.region,
                configs=s.configs,
                dispatched=s.dispatched,
                cache_hits=s.cache_hits,
                deduped=s.deduped,
                shared_hits=s.shared_hits,
                disk_hits=s.disk_hits,
                new_evaluations=s.new_evaluations,
                latency_s=s.wall_time_s,
            )
        return ready

    # -- dispatch ------------------------------------------------------------

    def _chunks(self, keys: list[tuple]) -> list[tuple[tuple, ...]]:
        """Shard *keys* into the per-worker chunks of one fan-out: by
        default ``ceil(B/workers)`` keys each, so every worker makes one
        vectorized ``compute_keys`` call over its whole share."""
        size = self.chunk_size or max(1, math.ceil(len(keys) / self.max_workers))
        return [tuple(keys[i : i + size]) for i in range(0, len(keys), size)]

    def _dispatch(
        self, batch: BatchResult, compute: list[tuple], results: dict
    ) -> None:
        """Compute inline (one worker, a degraded engine, or one chunk) or
        fan the chunks out to the pool."""
        chunks = self._chunks(compute)
        if self.max_workers == 1 or self._degraded or len(chunks) == 1:
            if self._degraded:
                batch.stats.serial_fallbacks += 1
            if self.fault_policy is None:
                computed = batch.target.compute_keys(compute).records()
            else:
                computed = [
                    self._rescue(key, batch.stats, 1, batch.target) for key in compute
                ]
            results.update(zip(compute, computed))
            return
        batch.pooled = True
        batch.pending += len(chunks)
        inflight = self._inflight.setdefault(batch.fp, {})
        deadline = self._deadline()
        for keys in chunks:
            chunk = _Chunk(keys, batch, deadline=deadline)
            inflight.update(dict.fromkeys(keys, chunk))
            self._submit(chunk)

    def _deadline(self) -> float:
        """One deadline for every chunk of a fan-out: n stragglers cost
        one timeout budget, not n."""
        if self.timeout_s is None:
            return math.inf
        return time.perf_counter() + self.timeout_s

    def _submit(self, chunk: _Chunk) -> None:
        if self._executor is None:
            if self.backend == "process":
                self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-eval"
                )
        future = self._executor.submit(
            _compute_chunk,
            chunk.owner.target,
            chunk.keys,
            chunk.attempt,
            self.fault_policy,
        )
        chunk.executor = self._executor
        self._futures[future] = chunk

    # -- drain ---------------------------------------------------------------

    def _drain(self) -> list[BatchResult]:
        """Land chunks until a pending batch is ready; commit every ready
        batch in submission order and return them."""
        while self._futures and all(b.pending for b in self._pending):
            self._land_some()
        ready = [b for b in self._pending if not b.pending]
        for batch in ready:
            self._commit(batch)
        self._pending = [b for b in self._pending if b.pending]
        return ready

    def _land_some(self) -> None:
        """Wait for the first chunk to finish or the earliest deadline to
        pass; land results, then retry or rescue what failed."""
        timeout = None
        if self.timeout_s is not None:
            first = min(c.deadline for c in self._futures.values())
            timeout = max(0.0, first - time.perf_counter())
        done, _ = wait(self._futures, timeout=timeout, return_when=FIRST_COMPLETED)
        failed = []
        for future in done:
            chunk = self._futures.pop(future)
            try:
                computed = future.result()
            except Exception:
                failed.append(chunk)
            else:
                self._land(chunk, computed.records())
        now = time.perf_counter()
        retire = False
        for future in [
            f for f, c in self._futures.items() if c.deadline <= now and not f.done()
        ]:
            chunk = self._futures.pop(future)
            chunk.owner.stats.timeouts += 1
            failed.append(chunk)
            # a chunk that already started cannot be cancelled: its worker
            # is abandoned, and so is the pool holding it
            if not future.cancel() and chunk.executor is self._executor:
                retire = True
        if retire:
            self._retire()
        if failed:
            self._retry_or_rescue(failed)

    def _retire(self) -> None:
        """Retire a pool that holds an abandoned worker: its running chunks
        still finish, its queued ones move to a fresh pool (same attempt,
        same deadline)."""
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None
        for future in [f for f in self._futures if f.cancelled()]:
            self._submit(self._futures.pop(future))

    def _retry_or_rescue(self, failed: list[_Chunk]) -> None:
        retry = [c for c in failed if c.attempt <= self.retries]
        if retry:
            time.sleep(self.backoff_s * max(c.attempt for c in retry))
            deadline = self._deadline()
        for chunk in failed:
            stats = chunk.owner.stats
            if chunk.attempt <= self.retries:
                stats.retried += len(chunk.keys)
                chunk.attempt += 1
                chunk.deadline = deadline
                self._submit(chunk)
            else:
                # last line of defence: per-key serial rescue in this thread
                stats.failed += len(chunk.keys)
                first = chunk.attempt + 1
                computed = [
                    self._rescue(key, stats, first, chunk.owner.target)
                    for key in chunk.keys
                ]
                self._land(chunk, computed)

    def _land(self, chunk: _Chunk, computed: list[Record]) -> None:
        fp = chunk.owner.fp
        self._fused_results[fp].update(zip(chunk.keys, computed))
        inflight = self._inflight[fp]
        for key in chunk.keys:
            del inflight[key]
        chunk.owner.pending -= 1
        for batch in chunk.waiters:
            batch.pending -= 1

    def _rescue(
        self, key: tuple, stats: EngineStats, first_attempt: int, target
    ) -> Record:
        """Serial per-key computation with bounded retries; the last line
        of defence — raises :class:`EvaluationError` if even this fails."""
        last_error: Exception | None = None
        for attempt in range(first_attempt, first_attempt + self.retries + 1):
            try:
                if self.fault_policy is not None:
                    self.fault_policy.check(key, attempt, True)
                return target.compute_keys([key]).records()[0]
            except Exception as exc:  # noqa: BLE001 — deliberate catch-all
                last_error = exc
                stats.retried += 1
                time.sleep(self.backoff_s)
        raise EvaluationError(
            f"configuration {key} failed after {self.retries + 1} serial attempts"
        ) from last_error

    # -- commit --------------------------------------------------------------

    def _commit(self, batch: BatchResult) -> None:
        """Single-writer commit of one complete batch, in batch order."""
        target, stats = batch.target, batch.stats
        results = self._fused_results[batch.fp]
        stats.new_evaluations = target.commit_many(
            batch.order, [results[key] for key in batch.order]
        )
        if batch.compute and target.has_disk_cache:
            target.disk_store_many([(key, *results[key]) for key in batch.compute])
        batch.objectives = tuple(target.lookup_many(batch.keys))
        stats.wall_time_s = time.perf_counter() - batch.t0
        batch.done = True

        if stats.failed:
            self._strikes += 1
            if self._strikes >= self.degrade_after and not self._degraded:
                self._degraded = True
                self.obs.tracer.event(
                    "engine.degraded",
                    strikes=self._strikes,
                    failed_configs=stats.failed,
                )
        elif batch.pooled:
            self._strikes = 0
        self._observe_batch(stats)
        self.stats.merge(stats)


def _compute_chunk(
    target: SimulatedTarget,
    keys: tuple[tuple, ...],
    attempt: int,
    fault_policy: FaultPolicy | None,
) -> MeasuredKeys:
    """Worker body: one vectorized ``compute_keys`` call, returned as
    columns; a fault on any key fails the whole chunk.  The chunk ships its
    own target — for the process backend the pickle carries only pure
    measurement state, no ledger."""
    if fault_policy is not None:
        for key in keys:
            fault_policy.check(key, attempt, False)
    return target.compute_keys(keys)
