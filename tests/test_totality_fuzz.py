"""Totality fuzz over the files the CLI reads back: measurement-cache shards
and trace files.

Every case runs the CLI in-process under a wall-clock bound and must end in
exit 0 or exactly one error line (a ``SystemExit`` carrying a one-line
message) — never a traceback or a hang.  A tune over a corrupted cache must
also give the front and E of the uncorrupted run: the shard's loader skips
every line it cannot trust, and the skipped configurations are measured
afresh, bit-identically.
"""

from __future__ import annotations

import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main

TUNE = ("tune", "mm", "--size", "N=64", "--seed", "3")

FUZZ = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _run(bounded, *argv) -> int:
    """Run the CLI; return its exit code, or 1 after checking that the
    error is one line."""
    try:
        code = bounded(main, list(argv), out=io.StringIO(), seconds=60)
    except SystemExit as exc:
        message = exc.code
        assert isinstance(message, str) and message and "\n" not in message, message
        return 1
    assert code == 0
    return code


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One traced, cached tune: its trace file, its shard directory and the
    uncorrupted front and E."""
    root = tmp_path_factory.mktemp("recorded")
    out = root / "out.json"
    trace = root / "trace.jsonl"
    code = main(
        [*TUNE, "--cache-dir", str(root / "cache"), "--json", str(out), "--trace", str(trace)],
        out=io.StringIO(),
    )
    assert code == 0
    result = json.loads(out.read_text())
    return {
        "trace": trace.read_bytes(),
        "cache": root / "cache",
        "front": result["front"],
        "evaluations": result["evaluations"],
    }


def _edit_lines(data: bytes, edits, apply) -> bytes:
    lines = data.split(b"\n")
    for index, edit in edits:
        i = index % len(lines)
        if lines[i] is not None:
            lines[i] = apply(lines[i], edit)
    return b"\n".join(line for line in lines if line is not None)


def _set_field(line: bytes, path: str, value=None, drop: bool = False) -> bytes:
    """The line with one (``attrs.``-nested) field set to *value*, or
    removed with *drop*; lines that are not JSON objects come back
    unchanged."""
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if not isinstance(record, dict):
        return line
    *parents, name = path.split(".")
    owner = record
    for part in parents:
        if not isinstance(owner.get(part), dict):
            owner[part] = {}
        owner = owner[part]
    if drop:
        owner.pop(name, None)
    else:
        owner[name] = value
    return json.dumps(record).encode()


# -- trace files: any mutation ----------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
trace_fields = st.sampled_from(
    [
        "type", "name", "id", "parent", "start", "end", "duration", "attrs", "span", "t",
        "attrs.configs", "attrs.dispatched", "attrs.cache_hits", "attrs.timeouts",
        "attrs.shared_hits", "attrs.region", "attrs.hypervolume", "attrs.algorithm",
        "attrs.generation", "attrs.policy", "attrs.version", "attrs.predicted_time",
    ]
)
trace_edits = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.binary(min_size=1, max_size=6)),
    st.tuples(st.just("replace"), json_values),
    st.tuples(st.just("field"), trace_fields, json_values),
    st.tuples(st.just("drop"), trace_fields),
    st.tuples(st.just("delete")),
)


def _trace_edit(line: bytes, edit) -> bytes | None:
    kind = edit[0]
    if kind == "truncate":
        return line[: edit[1] % (len(line) + 1)]
    if kind == "insert":
        at = edit[1] % (len(line) + 1)
        return line[:at] + edit[2] + line[at:]
    if kind == "replace":
        return json.dumps(edit[1]).encode()
    if kind == "field":
        return _set_field(line, edit[1], edit[2])
    if kind == "drop":
        return _set_field(line, edit[1], drop=True)
    return None


@settings(FUZZ, max_examples=200)
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), trace_edits), min_size=1, max_size=4))
def test_mutated_trace_file(recorded, tmp_path, bounded, edits):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(_edit_lines(recorded["trace"], edits, _trace_edit))
    _run(bounded, "trace", str(path))


# -- cache shards: every corruption the loader can tell ----------------------------

#: values no writer produces: non-finite or non-positive numbers, wrong types,
#: and sample lists of the wrong length
bad_numbers = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -1.0, 0, -1e-9, None, "1.0", [1.0], True, {}]
)
bad_samples = bad_numbers | st.lists(st.floats(0.1, 1.0), max_size=8).filter(
    lambda s: len(s) != 5
) | st.lists(bad_numbers, min_size=5, max_size=5)
shard_edits = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("bad_byte"), st.integers(0, 10**6), st.integers(0x80, 0xFF)),
    st.tuples(
        st.just("replace"),
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
        | st.lists(st.integers(), max_size=3),
    ),
    st.tuples(st.just("field"), st.just("v"), bad_numbers),
    st.tuples(st.just("field"), st.just("s"), bad_samples),
    # bi-objective targets never write an energy
    st.tuples(st.just("field"), st.just("e"), bad_numbers | st.floats(0.1, 10.0)),
    st.tuples(st.just("field"), st.just("k"), st.sampled_from([[], "k", [1.5, 2], [True, 1], None])),
    st.tuples(st.just("delete")),
)


def _shard_edit(line: bytes, edit) -> bytes | None:
    kind = edit[0]
    if kind == "truncate":
        # a torn line: it never keeps its closing brace
        return line[: edit[1] % max(1, len(line))]
    if kind == "bad_byte":
        at = edit[1] % (len(line) + 1)
        return line[:at] + bytes([edit[2]]) + line[at:]
    if kind == "replace":
        return json.dumps(edit[1]).encode()
    if kind == "field":
        if line.startswith(b'{"schema"'):
            return line  # a header carries no measurement
        return _set_field(line, edit[1], edit[2])
    return None


@settings(FUZZ, max_examples=15)
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), shard_edits), min_size=1, max_size=6))
def test_tune_over_a_corrupted_cache(recorded, tmp_path, bounded, edits):
    cache = tmp_path / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    shutil.copytree(recorded["cache"], cache)
    (shard,) = cache.glob("*.jsonl")
    shard.write_bytes(_edit_lines(shard.read_bytes(), edits, _shard_edit))
    out = tmp_path / "out.json"
    assert _run(bounded, *TUNE, "--cache-dir", str(cache), "--json", str(out)) == 0
    result = json.loads(out.read_text())
    assert result["front"] == recorded["front"]
    assert result["evaluations"] == recorded["evaluations"]
