"""Run one workload and compute its metrics.

An untraced run (``trace=False``) times every job and reports the
end-to-end metrics.  A traced run executes each job twice, untraced and
with the layer wrappers of :mod:`perfbench.spans` installed, and reports
the per-layer metrics.  Job, import and set-up times are in
reference-speed seconds (:mod:`perfbench.hostspeed`); span times, the
``host.*`` and the ``proc.*`` metrics are measured as they are.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.hostspeed import HostClock
from perfbench.jobs import Job, JobResult, make_workload, passes_for
from perfbench.spans import Recorder, layer_metrics, traced

__all__ = ["END_TO_END", "PER_LAYER", "run_workload", "ROOT"]

ROOT = Path(__file__).resolve().parent.parent
#: outputs of a run (traces, the tune-warm disk cache), inside the checkout
WORKDIR = ROOT / ".perfbench"

#: name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "evals_per_s": "configs/s",
    "hv": "fraction",
    "evaluations": "count",
    "front_size": "count",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = {
    "analysis.extract_regions_s": "s",
    "transform.skeleton_s": "s",
    "optimizer.propose_s": "s",
    "optimizer.propose_calls": "count",
    "optimizer.select_s": "s",
    "optimizer.roughset_s": "s",
    "optimizer.pareto_s": "s",
    "optimizer.bruteforce_self_s": "s",
    "optimizer.accept_ratio": "fraction",
    "cost.build_s": "s",
    "cost.time_batch_s": "s",
    "cost.time_batch_calls": "count",
    "cost.rows": "count",
    "cost.energy_s": "s",
    "cost.energy_calls": "count",
    "target.compute_s": "s",
    "target.keys": "count",
    "target.self_s": "s",
    "engine.batch_s": "s",
    "engine.self_s": "s",
    "engine.batches": "count",
    "engine.configs": "count",
    "engine.dispatched": "count",
    "engine.cache_hits": "count",
    "engine.deduped": "count",
    "engine.disk_hits": "count",
    "engine.new_ratio": "fraction",
    "disk_cache.fetch_s": "s",
    "disk_cache.hits": "count",
    "disk_cache.store_s": "s",
    "disk_cache.stored": "count",
    "disk_cache.bytes": "bytes",
    "backend.version_table_s": "s",
    "backend.emit_c_s": "s",
    "backend.versions": "count",
    "runtime.preview_s": "s",
    "runtime.selections": "count",
    "driver.unattributed_s": "s",
    "driver.unattributed_frac": "fraction",
}

#: name -> unit; span metrics are means per timed job
PER_LAYER = {
    "import.repro_cli_s": "s",
    **_SPAN_METRICS,
    "optimizer.generations": "count",
    "host.ref_ms": "ms",
    "host.measured_job_s.p50": "s",
    "proc.cpu_per_wall": "ratio",
    "proc.invol_ctx_switches": "count",
    "trace.overhead_frac": "fraction",
}

#: a job that runs longer than this is abandoned and counted as failed
JOB_TIMEOUT_S = 30.0
#: no job but the first is started after this much of a run has passed,
#: so that a run of a much slower program still ends within 180 s; the
#: jobs it ran are measured as usual (see :func:`_end_to_end`)
RUN_CUTOFF_S = 140.0
#: fresh interpreters whose ``import repro.cli`` time is medianed
IMPORT_SAMPLES = 5

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


class JobTimeout(Exception):
    pass


@contextmanager
def _deadline(seconds: float):
    """Raise :class:`JobTimeout` in the main thread after *seconds*."""

    def expire(signum, frame):
        raise JobTimeout(f"job exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_seconds(samples: int, clock: HostClock) -> float:
    """Median time to ``import repro.cli`` in *samples* fresh interpreters,
    each corrected by reference samples taken around its interpreter."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    values = []
    for _ in range(samples):
        before = clock.sample()
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        after = clock.sample()
        values.append(float(out.stdout.split()[-1]) * clock.factor(before, after))
    return statistics.median(values)


def _usage() -> tuple[float, int]:
    """(process CPU seconds, involuntary context switches) so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_nivcsw


def _dir_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Timing:
    """One timed execution: measured and reference-speed seconds, and the
    process CPU time and involuntary context switches it took."""

    measured: float
    seconds: float
    cpu: float
    invol_ctx_switches: int


@dataclass
class Run:
    """Everything one run measured."""

    #: reference-speed seconds of each checked job (untraced executions)
    seconds: list[float] = field(default_factory=list)
    measured: list[float] = field(default_factory=list)
    results: list[JobResult] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    # traced runs only
    traced_seconds: list[float] = field(default_factory=list)
    traced_jobs: list[str] = field(default_factory=list)
    cpu_seconds: float = 0.0
    invol_ctx_switches: int = 0


def _timed(clock: HostClock, fn, *args) -> tuple[object, Timing]:
    """Run ``fn(*args)`` under the job deadline, between two reference
    samples that are not part of its time."""
    before = clock.sample_before()
    with _deadline(JOB_TIMEOUT_S):
        cpu0, ctx0 = _usage()
        t0 = time.perf_counter()
        out = fn(*args)
        measured = time.perf_counter() - t0
        cpu1, ctx1 = _usage()
    after = clock.sample()
    return out, Timing(measured, measured * clock.factor(before, after), cpu1 - cpu0, ctx1 - ctx0)


def _run_job(
    workload, job: Job, index: int, run: Run, clock: HostClock, recorder: Recorder | None
) -> None:
    """One closed-loop step: run *job* (twice in a traced run, untraced and
    traced), check its output, and record the outcome."""
    run.attempted += 1
    job_id = f"{index}:{job.label}"
    try:
        if recorder is None:
            raw, timing = _timed(clock, workload.run, job)
        else:
            # alternate which of the two executions goes first, so that
            # warm-up and drift do not bias trace.overhead_frac
            for traced_turn in (False, True) if index % 2 == 0 else (True, False):
                if traced_turn:
                    with traced(recorder), recorder.job_span(job_id):
                        traced_raw, traced_timing = _timed(clock, workload.run, job)
                else:
                    raw, timing = _timed(clock, workload.run, job)
                    run.cpu_seconds += timing.cpu
                    run.invol_ctx_switches += timing.invol_ctx_switches
        result = workload.inspect(job, raw)
        if recorder is not None:
            result.problems += workload.inspect(job, traced_raw).problems
    except Exception as exc:  # noqa: BLE001 - a failing job is counted, not fatal
        run.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
        return
    if result.problems:
        run.failures.extend(result.problems)
        return
    run.seconds.append(timing.seconds)
    run.measured.append(timing.measured)
    run.results.append(result)
    if recorder is not None:
        run.traced_seconds.append(traced_timing.seconds)
        run.traced_jobs.append(job_id)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    max_jobs: int | None = None,
    import_samples: int = IMPORT_SAMPLES,
) -> dict:
    """Run workload *name* and return the result object the command prints
    (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    started = time.perf_counter()
    workdir = WORKDIR / f"run-{os.getpid()}"
    workload = make_workload(name, workdir)
    recorder = Recorder() if trace else None
    passes = passes_for(name, seconds)
    if trace:
        passes = max(1, passes // 2)
    run = Run()
    clock = HostClock()
    try:
        import_s = import_seconds(import_samples, clock)

        def prepare():
            jobs = workload.jobs(seed, passes)[:max_jobs]
            return jobs, workload.setup_steps(jobs)

        (jobs, steps), _, construct_s = clock.time(prepare)
        if recorder is None:
            construct_s += sum(clock.time(step)[2] for step in steps)
        else:
            with traced(recorder), recorder.job_span("setup"):
                construct_s += sum(clock.time(step)[2] for step in steps)
        cache_bytes = _dir_bytes(getattr(workload, "cache_dir", None))
        fill_jobs = len(set(jobs)) if cache_bytes else 0

        for index, job in enumerate(jobs):
            if index and time.perf_counter() - started > RUN_CUTOFF_S:
                print(
                    f"perfbench: cut-off after {RUN_CUTOFF_S:.0f} s, "
                    f"{len(jobs) - index} of {len(jobs)} jobs not started",
                    file=sys.stderr,
                )
                break
            _run_job(workload, job, index, run, clock, recorder)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    out = {
        "correct": not run.failures and bool(run.results),
        "attempted": max(1, run.attempted),
        "failed": run.attempted - len(run.results),
        "metrics": {},
    }
    if not run.results:
        return out
    if recorder is None:
        values = _end_to_end(run, len(jobs) / passes, import_s + construct_s)
        units = END_TO_END
    else:
        values = _per_layer(run, recorder, clock, import_s, fill_jobs, cache_bytes)
        units = PER_LAYER
        recorder.write_jsonl(WORKDIR / f"trace-{name}-s{seed}.jsonl")
    out["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return out


def _end_to_end(run: Run, jobs_per_pass: float, setup_s: float) -> dict[str, float]:
    n = len(run.results)
    timed = sum(run.seconds)
    return {
        "setup_s": setup_s,
        # the timed work of one pass: timed / passes, unless the cut-off
        # stopped the run early
        "wall_s": timed / n * jobs_per_pass,
        "job_s.p50": statistics.median(run.seconds),
        "evals_per_s": sum(r.evaluations for r in run.results) / timed,
        "hv": sum(r.hv for r in run.results) / n,
        "evaluations": sum(r.evaluations for r in run.results) / n,
        "front_size": sum(r.front_size for r in run.results) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(
    run: Run,
    recorder: Recorder,
    clock: HostClock,
    import_s: float,
    fill_jobs: int,
    cache_bytes: int,
) -> dict[str, float]:
    n = len(run.results)
    untraced = sum(run.seconds)
    values = layer_metrics(
        recorder,
        run.traced_jobs,
        accepted=sum(r.accepted for r in run.results),
        fill_jobs=fill_jobs,
        cache_bytes=cache_bytes,
    )
    return {
        "import.repro_cli_s": import_s,
        **values,
        "optimizer.generations": sum(r.generations for r in run.results) / n,
        "host.ref_ms": statistics.median(clock.samples) * 1e3,
        "host.measured_job_s.p50": statistics.median(run.measured),
        "proc.cpu_per_wall": run.cpu_seconds / sum(run.measured),
        "proc.invol_ctx_switches": run.invol_ctx_switches / n,
        "trace.overhead_frac": sum(run.traced_seconds) / untraced - 1.0,
    }
