"""Spans recorded from the benchmark's own files, around the calls into each
layer's public functions, and the per-layer metrics derived from them.

:func:`traced` installs the wrappers for the duration of a ``with`` block
and restores every original attribute afterwards, so untraced runs carry
none.  Spans are kept in memory (:class:`Recorder`) and written out once,
at the end of the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

__all__ = ["Recorder", "traced", "patch_targets", "layer_metrics", "ENGINE_FIELDS"]

ENGINE_FIELDS = (
    "batches",
    "configs",
    "dispatched",
    "cache_hits",
    "deduped",
    "disk_hits",
    "new_evaluations",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    thread: int
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store.  Spans nest per thread; a span opened on a
    thread with nothing open (an engine pool thread) is parented to the
    current job's root span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.job: str | None = None
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, counts=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        attrs: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic, so pool threads may record concurrently
            self.spans.append(
                Span(sid, name, start, end, parent, self.job, threading.get_ident(), attrs)
            )
        if counts is not None:
            attrs.update(counts(result))
        return result

    @contextmanager
    def job_span(self, job: str):
        """The root span of one job; every span recorded inside it, on any
        thread, carries *job*."""
        self.job, self._root = job, next(self._ids)
        stack = self._stack()
        stack.append(self._root)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(self._root, "job", start, end, None, job, threading.get_ident(), {})
            )
            self.job, self._root = None, None

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s._asdict()) + "\n")


# -- the wrapped calls ------------------------------------------------------


def _engine_counts(stats) -> dict:
    return {f: getattr(stats, f) for f in ENGINE_FIELDS}


#: (module, attribute path, span name, result -> counts)
PATCHES = (
    ("repro.driver.compiler", "TuningDriver.tune_kernel", "driver.tune_kernel", None),
    ("repro.driver.compiler", "extract_regions", "analysis.extract_regions", None),
    ("repro.experiments.setups", "extract_regions", "analysis.extract_regions", None),
    ("repro.driver.compiler", "default_skeleton", "transform.skeleton", None),
    ("repro.experiments.setups", "default_skeleton", "transform.skeleton", None),
    ("repro.optimizer.gde3", "GDE3.propose", "optimizer.propose", lambda r: {"trials": len(r)}),
    ("repro.optimizer.gde3", "GDE3.select", "optimizer.select", None),
    ("repro.optimizer.rsgde3", "rough_set_boundary", "optimizer.roughset", None),
    ("repro.optimizer.archive", "ParetoArchive.stats_of", "optimizer.pareto", None),
    ("repro.optimizer.rsgde3", "non_dominated", "optimizer.pareto", None),
    ("repro.experiments.sweeps", "brute_force_search", "optimizer.bruteforce", None),
    ("repro.evaluation.cost", "RegionCostModel.__init__", "cost.build", None),
    ("repro.evaluation.cost", "RegionCostModel.time_batch", "cost.time_batch", lambda r: {"rows": len(r)}),
    ("repro.evaluation.cost", "RegionCostModel.energy", "cost.energy", None),
    ("repro.evaluation.simulator", "SimulatedTarget.compute_keys", "target.compute", lambda r: {"keys": len(r)}),
    ("repro.optimizer.problem", "TuningProblem.evaluate_batch", "engine.problem_batch", None),
    ("repro.evaluation.parallel_eval", "EvaluationEngine.evaluate_batch", "engine.batch", lambda r: _engine_counts(r.stats)),
    ("repro.evaluation.disk_cache", "MeasurementDiskCache.fetch", "disk_cache.fetch", lambda r: {"hits": int(r is not None)}),
    ("repro.evaluation.disk_cache", "MeasurementDiskCache.store_many", "disk_cache.store", lambda r: {"stored": r}),
    ("repro.driver.compiler", "TunedKernel.build_version_table", "backend.version_table", lambda r: {"versions": len(r.versions)}),
    ("repro.driver.compiler", "TunedKernel.emit_c", "backend.emit_c", None),
    ("repro.driver.compiler", "TunedKernel.preview_selections", "runtime.preview", lambda r: {"selections": len(r)}),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def patch_targets() -> dict[tuple[str, str], object]:
    """The current raw attribute (``__dict__`` entry) at every wrap site."""
    out = {}
    for module, path, _, _ in PATCHES:
        owner, attr = _owner(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


def _wrapper(recorder: Recorder, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, counts)

    wrapper.__perfbench_wrapper__ = True
    return wrapper


@contextmanager
def traced(recorder: Recorder):
    """Wrap every call in :data:`PATCHES` so it records a span into
    *recorder*; the original attributes are restored on exit."""
    saved = []
    try:
        for module, path, name, counts in PATCHES:
            owner, attr = _owner(module, path)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrapper(recorder, name, original.__func__, counts))
            else:
                wrapped = _wrapper(recorder, name, original, counts)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- interval arithmetic ----------------------------------------------------


def _merge(intervals) -> tuple[list[float], list[float]]:
    """Disjoint, sorted (starts, ends) covering the union of *intervals*."""
    starts: list[float] = []
    ends: list[float] = []
    for a, b in sorted(intervals):
        if ends and a <= ends[-1]:
            ends[-1] = max(ends[-1], b)
        else:
            starts.append(a)
            ends.append(b)
    return starts, ends


def _covered(merged, a: float, b: float) -> float:
    """Length of [a, b] covered by the merged union."""
    starts, ends = merged
    i = max(0, bisect.bisect_right(starts, a) - 1)
    total = 0.0
    while i < len(starts) and starts[i] < b:
        total += max(0.0, min(b, ends[i]) - max(a, starts[i]))
        i += 1
    return total


def _self_seconds(spans, children, same_thread: bool) -> float:
    """Σ over *spans* of their duration minus the part the *children*
    intervals cover (on the same thread only, or on any thread)."""
    if same_thread:
        by_thread: dict[int, list] = {}
        for c in children:
            by_thread.setdefault(c.thread, []).append((c.start, c.end))
        merged = {t: _merge(iv) for t, iv in by_thread.items()}
        empty = ([], [])
        return sum(s.seconds - _covered(merged.get(s.thread, empty), s.start, s.end) for s in spans)
    merged_all = _merge((c.start, c.end) for c in children)
    return sum(s.seconds - _covered(merged_all, s.start, s.end) for s in spans)


# -- per-layer metrics ------------------------------------------------------


def _outermost(spans, by_id, prefix: str):
    """Spans whose parent is not itself a span of the same layer."""
    out = []
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None or not parent.name.startswith(prefix):
            out.append(s)
    return out


def layer_metrics(
    recorder: Recorder,
    jobs: list[str],
    accepted: int,
    fill_jobs: int = 0,
    cache_bytes: int = 0,
) -> dict[str, float]:
    """Per-job means of every span-derived per-layer metric over the timed
    *jobs*.  *accepted* is the number of GDE3 trials the jobs' populations
    took in, from their convergence records.  When set-up filled a disk
    cache with *fill_jobs* cold jobs (``tune-warm``), the cache-write
    metrics are per fill job of the spans recorded under the ``setup`` job
    and *cache_bytes* is the size of the filled cache."""
    wanted = set(jobs)
    spans = [s for s in recorder.spans if s.job in wanted]
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def of(*names):
        return [s for n in names for s in named.get(n, [])]

    def secs(*names):
        return sum(s.seconds for s in of(*names))

    def count(name, key):
        return sum(s.attrs.get(key, 0) for s in named.get(name, []))

    n = max(1, len(jobs))
    engine_spans = _outermost(of("engine.problem_batch", "engine.batch"), by_id, "engine.")
    engine_counts = {f: count("engine.batch", f) for f in ENGINE_FIELDS}
    backend_tables = _outermost(of("backend.version_table"), by_id, "runtime.")
    layers = [s for s in spans if s.name != "job" and not s.name.startswith("driver.")]
    roots = of("job")
    unattributed = 0.0
    for root in roots:
        inside = [s for s in layers if s.job == root.job]
        unattributed += _self_seconds([root], inside, same_thread=False)
    root_seconds = sum(s.seconds for s in roots)

    write_jobs = {"setup"} if fill_jobs else wanted
    writes = [s for s in recorder.spans if s.job in write_jobs and s.name == "disk_cache.store"]
    n_write = fill_jobs or n

    target_spans = of("target.compute")
    return {
        "analysis.extract_regions_s": secs("analysis.extract_regions") / n,
        "transform.skeleton_s": secs("transform.skeleton") / n,
        "optimizer.propose_s": secs("optimizer.propose") / n,
        "optimizer.propose_calls": len(of("optimizer.propose")) / n,
        "optimizer.accept_ratio": accepted / max(1, count("optimizer.propose", "trials")),
        "optimizer.select_s": secs("optimizer.select") / n,
        "optimizer.roughset_s": secs("optimizer.roughset") / n,
        "optimizer.pareto_s": secs("optimizer.pareto") / n,
        "optimizer.bruteforce_self_s": _self_seconds(
            of("optimizer.bruteforce"),
            [s for s in layers if s.name != "optimizer.bruteforce"],
            same_thread=True,
        ) / n,
        "cost.build_s": secs("cost.build") / n,
        "cost.time_batch_s": secs("cost.time_batch") / n,
        "cost.time_batch_calls": len(of("cost.time_batch")) / n,
        "cost.rows": count("cost.time_batch", "rows") / n,
        "cost.energy_s": secs("cost.energy") / n,
        "cost.energy_calls": len(of("cost.energy")) / n,
        "target.compute_s": secs("target.compute") / n,
        "target.keys": count("target.compute", "keys") / n,
        "target.self_s": _self_seconds(
            target_spans, of("cost.time_batch", "cost.energy"), same_thread=True
        ) / n,
        "engine.batch_s": sum(s.seconds for s in engine_spans) / n,
        "engine.self_s": _self_seconds(
            engine_spans,
            of("target.compute", "disk_cache.fetch", "disk_cache.store"),
            same_thread=False,
        ) / n,
        **{f"engine.{f}": engine_counts[f] / n for f in ENGINE_FIELDS if f != "new_evaluations"},
        "engine.new_ratio": engine_counts["new_evaluations"] / max(1, engine_counts["configs"]),
        "disk_cache.fetch_s": secs("disk_cache.fetch") / n,
        "disk_cache.hits": count("disk_cache.fetch", "hits") / n,
        "disk_cache.store_s": sum(s.seconds for s in writes) / n_write,
        "disk_cache.stored": sum(s.attrs.get("stored", 0) for s in writes) / n_write,
        "disk_cache.bytes": cache_bytes / n_write,
        "backend.version_table_s": sum(s.seconds for s in backend_tables) / n,
        "backend.emit_c_s": secs("backend.emit_c") / n,
        "backend.versions": sum(s.attrs.get("versions", 0) for s in backend_tables) / n,
        "runtime.preview_s": secs("runtime.preview") / n,
        "runtime.selections": count("runtime.preview", "selections") / n,
        "driver.unattributed_s": unattributed / n,
        "driver.unattributed_frac": unattributed / root_seconds if root_seconds else 0.0,
    }
