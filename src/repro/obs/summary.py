"""Trace-file loading and summarization (the ``repro trace`` subcommand).

Reads a JSONL trace written by :meth:`repro.obs.tracer.Tracer.write_jsonl`
and renders the three views the paper's analysis needs: where the wall
time went (phase breakdown over the span tree), how the optimizer
converged (the V-vs-E trajectory from ``optimizer.generation`` events),
and what the evaluation engine / runtime did (``engine.batch`` span
accounting, ``runtime.selection`` decisions).

Malformed input raises :class:`~repro.obs.tracer.TraceError` with the
offending line number — the CLI turns that into a clean one-line error
instead of a stack trace.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.tracer import TraceError
from repro.util.tables import Table

__all__ = ["load_trace", "summarize_trace", "trace_summary_for_path"]


def _is_number(value) -> bool:
    """Whether a decoded JSON value is a number within the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


#: field → (check, expectation) of span and event records; a field may be
#: absent, but when present it must pass (``name`` is required)
_FIELDS = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "id": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "parent": (lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool)),
               "an integer or null"),
    "span": (lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool)),
             "an integer or null"),
    "start": (_is_number, "a number"),
    "end": (_is_number, "a number"),
    "duration": (_is_number, "a number"),
    "t": (_is_number, "a number"),
    "attrs": (lambda v: isinstance(v, dict), "an object"),
}
_REQUIRED = {"span": ("name", "id"), "event": ("name",)}


def _record_problem(record) -> str | None:
    """Why a decoded line is not a trace record, or None if it is one."""
    if not isinstance(record, dict) or "type" not in record:
        return "is not a trace record (expected a JSON object with a 'type' field)"
    kind = record["type"]
    if not isinstance(kind, str) or kind not in _REQUIRED:
        return None
    for name in _REQUIRED[kind]:
        if name not in record:
            return f"is a {kind} record without '{name}'"
    for name, (check, expected) in _FIELDS.items():
        if name in record and not check(record[name]):
            return f"has a {kind} '{name}' that is not {expected}"
    return None


def load_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file into its records.

    :raises TraceError: if the file is missing, unreadable, not UTF-8
        text, empty, or any line is not a JSON object with a ``type``
        field, or a span or event record whose fields have the wrong
        types.
    """
    p = Path(path)
    try:
        text = p.read_bytes().decode("utf-8")
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceError(
            f"corrupt trace file {path}: not UTF-8 text (byte {exc.start})"
        ) from None

    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(
                f"corrupt trace file {path}: line {lineno} is not valid JSON "
                f"({exc.msg})"
            ) from exc
        except RecursionError:
            raise TraceError(
                f"corrupt trace file {path}: line {lineno} is nested too deeply"
            ) from None
        problem = _record_problem(record)
        if problem is not None:
            raise TraceError(f"corrupt trace file {path}: line {lineno} {problem}")
        records.append(record)
    if not records:
        raise TraceError(f"trace file {path} is empty")
    return records


# ----------------------------------------------------------------------


def _count(attrs: dict, key: str) -> int:
    """A count attribute (absent: 0) of a span or event."""
    value = attrs.get(key, 0)
    if not (_is_number(value) and math.isfinite(value)):
        raise TraceError(f"corrupt trace: attribute '{key}' is not a count: {value!r}")
    return int(value)


def _spans(records: list[dict], name: str | None = None) -> list[dict]:
    return [
        r
        for r in records
        if r.get("type") == "span" and (name is None or r.get("name") == name)
    ]


def _events(records: list[dict], name: str) -> list[dict]:
    return [r for r in records if r.get("type") == "event" and r.get("name") == name]


def _phase_table(records: list[dict]) -> str | None:
    """Wall-time breakdown over top-level spans (no parent in the trace)."""
    spans = _spans(records)
    if not spans:
        return None
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s.get("parent") not in ids]
    by_name: dict[str, list[dict]] = {}
    for s in roots:
        by_name.setdefault(s["name"], []).append(s)
    total = sum(s.get("duration", 0.0) for s in roots) or 1.0

    t = Table(["phase", "spans", "total [s]", "share"], title="Phase breakdown")
    order = sorted(
        by_name, key=lambda n: -sum(s.get("duration", 0.0) for s in by_name[n])
    )
    for name in order:
        dur = sum(s.get("duration", 0.0) for s in by_name[name])
        t.add_row([name, len(by_name[name]), dur, f"{100 * dur / total:.1f}%"])
    return t.render()


def _convergence_table(records: list[dict]) -> str | None:
    events = _events(records, "optimizer.generation")
    if not events:
        return None
    t = Table(
        ["algorithm", "gen", "E", "|S|", "V(S)", "accepted", "dominated"],
        title="Convergence trajectory",
    )
    for e in events:
        a = e.get("attrs", {})
        hv = a.get("hypervolume", float("nan"))
        t.add_row(
            [
                a.get("algorithm", "?"),
                a.get("generation", "?"),
                a.get("evaluations", "?"),
                a.get("front_size", "?"),
                f"{hv:.4g}" if isinstance(hv, (int, float)) else hv,
                a.get("accepted", 0),
                a.get("dominated", 0),
            ]
        )
    return t.render()


def _engine_table(records: list[dict]) -> str | None:
    batches = _spans(records, "engine.batch")
    if not batches:
        return None
    keys = (
        "configs",
        "dispatched",
        "cache_hits",
        "deduped",
        "new_evaluations",
        "retried",
        "timeouts",
        "failed",
    )
    totals = {k: 0 for k in keys}
    wall = 0.0
    for s in batches:
        a = s.get("attrs", {})
        for k in keys:
            totals[k] += _count(a, k)
        wall += s.get("duration", 0.0)
    t = Table(
        ["batches", *keys, "wall [s]"],
        title="Evaluation-engine accounting",
    )
    t.add_row([len(batches), *[totals[k] for k in keys], wall])
    return t.render()


def _scheduler_table(records: list[dict]) -> str | None:
    """Per-region accounting of a fused cross-region session, from the
    ``scheduler.batch`` events the engine emits at each batch commit."""
    events = _events(records, "scheduler.batch")
    if not events:
        return None
    keys = ("configs", "dispatched", "cache_hits", "deduped", "shared_hits")
    by_region: dict[str, dict] = {}
    for e in events:
        a = e.get("attrs", {})
        row = by_region.setdefault(
            str(a.get("region", "?")), {"batches": 0, **{k: 0 for k in keys}}
        )
        row["batches"] += 1
        for k in keys:
            row[k] += _count(a, k)
    t = Table(
        ["region", "batches", *keys],
        title="Cross-region scheduler",
    )
    for region in sorted(by_region):
        row = by_region[region]
        t.add_row([region, row["batches"], *[row[k] for k in keys]])
    return t.render()


def _selection_table(records: list[dict]) -> str | None:
    events = _events(records, "runtime.selection")
    if not events:
        return None
    t = Table(
        ["policy", "decisions", "versions chosen", "avg predicted [s]"],
        title="Runtime selection decisions",
    )
    by_policy: dict[str, list[dict]] = {}
    for e in events:
        by_policy.setdefault(str(e.get("attrs", {}).get("policy", "?")), []).append(e)
    for policy in sorted(by_policy):
        attrs = [e.get("attrs", {}) for e in by_policy[policy]]
        versions = sorted({str(a.get("version", "?")) for a in attrs})
        predicted = [a.get("predicted_time") for a in attrs]
        predicted = [p for p in predicted if isinstance(p, (int, float))]
        avg = sum(predicted) / len(predicted) if predicted else float("nan")
        t.add_row([policy, len(attrs), ",".join(versions), avg])
    return t.render()


def summarize_trace(records: list[dict]) -> str:
    """Render the phase/convergence/engine/runtime summary of a trace."""
    meta = next((r for r in records if r.get("type") == "meta"), {})
    lines = []
    context = " ".join(
        f"{k}={meta[k]}" for k in ("kernel", "machine", "command") if k in meta
    )
    n_spans = len(_spans(records))
    n_events = sum(1 for r in records if r.get("type") == "event")
    lines.append(
        f"trace: {n_spans} spans, {n_events} events"
        + (f" ({context})" if context else "")
    )
    for section in (
        _phase_table(records),
        _convergence_table(records),
        _engine_table(records),
        _scheduler_table(records),
        _selection_table(records),
    ):
        if section is not None:
            lines.append("")
            lines.append(section)
    return "\n".join(lines)


def trace_summary_for_path(path: str | Path) -> str:
    """Load + summarize in one call (raises :class:`TraceError`)."""
    return summarize_trace(load_trace(path))
