"""Tests for the observability layer (repro.obs): clocks, tracer,
metrics, convergence records, and trace summarization."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    DISABLED,
    ConvergenceRecord,
    FakeClock,
    MetricsRegistry,
    NullTracer,
    Observability,
    SystemClock,
    TraceError,
    Tracer,
    emit_generation,
    load_trace,
    population_delta,
    summarize_trace,
    trace_summary_for_path,
)
from repro.obs.clock import Clock
from repro.obs.tracer import NULL_SPAN


class TestClocks:
    def test_system_clock_satisfies_protocol(self):
        clock = SystemClock()
        assert isinstance(clock, Clock)
        assert clock.perf() <= clock.perf()

    def test_fake_clock_manual_advance(self):
        clock = FakeClock(t=10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.perf() == 12.5
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_fake_clock_auto_tick(self):
        clock = FakeClock(tick=1.0)
        assert [clock.perf() for _ in range(3)] == [0.0, 1.0, 2.0]


class TestTracer:
    def test_span_nesting_records_parenthood(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                tracer.event("ping", n=1)
        records = tracer.records()
        names = [r["name"] for r in records]
        # inner closes before outer; the event lands between the opens
        assert names == ["ping", "inner", "outer"]
        event, inner, outer_rec = records
        assert outer_rec["parent"] is None
        assert inner["parent"] == outer_rec["id"]
        assert event["span"] == inner["parent"] + 1 or event["span"] == inner["id"]
        assert outer.span_id == outer_rec["id"]

    def test_span_durations_from_fake_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("phase"):
            clock.advance(3.0)
        (record,) = tracer.records()
        assert record["duration"] == 3.0
        assert (record["start"], record["end"]) == (0.0, 3.0)

    def test_span_set_attrs_and_error_capture(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(KeyError):
            with tracer.span("phase", stage=1) as span:
                span.set(configs=7)
                raise KeyError("boom")
        (record,) = tracer.records()
        assert record["attrs"] == {"stage": 1, "configs": 7, "error": "KeyError"}

    def test_event_without_open_span_is_rootless(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("lonely")
        (record,) = tracer.records()
        assert record["span"] is None

    def test_attrs_coerced_to_jsonable(self):
        import numpy as np

        tracer = Tracer(clock=FakeClock())
        tracer.event(
            "e",
            np_int=np.int64(3),
            np_float=np.float64(0.5),
            seq=(1, 2),
            mapping={"k": np.int32(1)},
            other=object(),
        )
        (record,) = tracer.records()
        attrs = record["attrs"]
        assert attrs["np_int"] == 3 and isinstance(attrs["np_int"], int)
        assert attrs["np_float"] == 0.5
        assert attrs["seq"] == [1, 2]
        assert attrs["mapping"] == {"k": 1}
        assert isinstance(attrs["other"], str)
        json.dumps(record)  # the whole record must serialize

    def test_write_jsonl_roundtrip_deterministic(self, tmp_path):
        def trace_once():
            tracer = Tracer(clock=FakeClock(tick=0.5))
            with tracer.span("run", kernel="mm"):
                tracer.event("gen", generation=0)
            return tracer

        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        n1 = trace_once().write_jsonl(p1, meta={"command": "test"})
        n2 = trace_once().write_jsonl(p2, meta={"command": "test"})
        assert n1 == n2 == 2
        assert p1.read_bytes() == p2.read_bytes()  # byte-determinism
        records = load_trace(p1)
        assert records[0] == {"type": "meta", "format": 1, "command": "test"}
        assert [r["type"] for r in records[1:]] == ["event", "span"]

    def test_write_jsonl_unwritable_raises_trace_error(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(TraceError, match="cannot write"):
            tracer.write_jsonl(tmp_path / "no" / "such" / "dir" / "t.jsonl")

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert not tracer.enabled
        span = tracer.span("anything", x=1)
        assert span is NULL_SPAN  # shared instance, no allocation per call
        with span as s:
            s.set(y=2)
        tracer.event("ignored")
        assert tracer.records() == []


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "help text")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_up_down(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4

    def test_histogram_buckets(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        assert h.count == 3 and h.sum == pytest.approx(2.55)
        text = "\n".join(h.expose())
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.5))

    def test_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert "x" in reg and len(reg) == 1
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "things").inc(2)
        reg.gauge("a_now").set(1.5)
        text = reg.exposition()
        # sorted by name, HELP only when given, TYPE always
        assert text.splitlines() == [
            "# TYPE a_now gauge",
            "a_now 1.5",
            "# HELP b_total things",
            "# TYPE b_total counter",
            "b_total 2",
        ]
        assert reg.as_dict() == {"a_now": 1.5, "b_total": 2.0}

    def test_empty_exposition(self):
        assert MetricsRegistry().exposition() == ""


class TestObservability:
    def test_disabled_default(self):
        obs = Observability.disabled()
        assert not obs.enabled
        assert isinstance(obs.tracer, NullTracer)
        assert not DISABLED.enabled

    def test_tracing_factory(self):
        clock = FakeClock()
        obs = Observability.tracing(clock=clock)
        assert obs.enabled
        assert obs.tracer.clock is clock


class TestConvergence:
    def test_record_roundtrip(self):
        rec = ConvergenceRecord(
            generation=3, evaluations=120, front_size=7, hypervolume=0.5,
            accepted=4, dominated=2,
        )
        assert ConvergenceRecord.from_dict(rec.as_dict()) == rec
        assert ConvergenceRecord.from_dict(
            {"generation": 0, "evaluations": 30, "front_size": 1, "hypervolume": 0.0}
        ).accepted == 0

    def test_emit_generation_writes_event_and_metrics(self):
        obs = Observability.tracing(clock=FakeClock())
        rec = ConvergenceRecord(
            generation=1, evaluations=60, front_size=5, hypervolume=0.25
        )
        emit_generation(obs, "rsgde3", rec)
        (event,) = obs.tracer.records()
        assert event["name"] == "optimizer.generation"
        assert event["attrs"]["algorithm"] == "rsgde3"
        assert event["attrs"]["hypervolume"] == 0.25
        snap = obs.metrics.as_dict()
        assert snap["repro_optimizer_generations_total"] == 1
        assert snap["repro_optimizer_front_size"] == 5
        assert snap["repro_optimizer_evaluations"] == 60

    def test_population_delta(self):
        class Cfg:
            def __init__(self, values):
                self.values = values

        before = [Cfg(("a",)), Cfg(("b",))]
        after = [Cfg(("b",)), Cfg(("c",)), Cfg(("d",))]
        assert population_delta(before, after) == (2, 1)
        assert population_delta(before, before) == (0, 0)


class TestTraceSummary:
    def _trace_file(self, tmp_path):
        tracer = Tracer(clock=FakeClock(tick=0.25))
        with tracer.span("driver.optimize", kernel="mm"):
            with tracer.span("engine.batch") as batch:
                batch.set(
                    configs=10, dispatched=8, cache_hits=2, deduped=0,
                    new_evaluations=8, retried=0, timeouts=0, failed=0,
                )
            tracer.event(
                "optimizer.generation",
                algorithm="rsgde3", generation=0, evaluations=10,
                front_size=3, hypervolume=9.5e-05, accepted=10, dominated=0,
            )
        tracer.event(
            "runtime.selection",
            region="mm", policy="fastest", context={}, version=0,
            threads=8, predicted_time=0.01, actual_time=None,
        )
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path, meta={"kernel": "mm", "command": "tune"})
        return path

    def test_summary_sections(self, tmp_path):
        text = trace_summary_for_path(self._trace_file(tmp_path))
        assert "trace: 2 spans, 2 events" in text
        assert "kernel=mm" in text and "command=tune" in text
        assert "Phase breakdown" in text and "driver.optimize" in text
        assert "Convergence trajectory" in text and "9.5e-05" in text
        assert "Evaluation-engine accounting" in text
        assert "Runtime selection decisions" in text and "fastest" in text

    def test_phase_breakdown_only_counts_roots(self, tmp_path):
        records = load_trace(self._trace_file(tmp_path))
        text = summarize_trace(records)
        # engine.batch is nested under driver.optimize, so the only phase
        # line is the root span at 100%
        phase_block = text.split("Phase breakdown")[1].split("Convergence")[0]
        assert "driver.optimize" in phase_block
        assert "engine.batch" not in phase_block
        assert "100.0%" in phase_block

    def test_missing_file_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(tmp_path / "absent.jsonl")

    def test_corrupt_line_raises_with_lineno(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"type": "meta", "format": 1}\nnot json at all\n')
        with pytest.raises(TraceError, match="line 2"):
            load_trace(p)

    def test_non_record_object_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"no_type": true}\n')
        with pytest.raises(TraceError, match="'type' field"):
            load_trace(p)
        p.write_text("[1, 2, 3]\n")
        with pytest.raises(TraceError, match="line 1"):
            load_trace(p)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"type": "span"}', "without 'name'"),
            ('{"type": "span", "name": "x"}', "without 'id'"),
            ('{"type": "span", "name": "x", "id": "1"}', "'id' that is not an integer"),
            ('{"type": "span", "name": "x", "id": 1, "parent": [2]}', "'parent'"),
            ('{"type": "span", "name": "x", "id": 1, "duration": "1s"}', "'duration'"),
            ('{"type": "span", "name": "x", "id": 1, "duration": 1' + "0" * 400 + "}", "'duration'"),
            ('{"type": "span", "name": 5, "id": 1}', "'name' that is not a string"),
            ('{"type": "event", "name": "x", "attrs": [1]}', "'attrs' that is not an object"),
            ('{"type": "event"}', "without 'name'"),
        ],
    )
    def test_malformed_span_and_event_records_rejected(self, tmp_path, line, message):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"type": "meta", "format": 1}\n' + line + "\n")
        with pytest.raises(TraceError, match="line 2") as info:
            load_trace(p)
        assert message in str(info.value)

    def test_non_utf8_file_raises_trace_error(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_bytes(b'{"type": "meta", "format": 1}\n\xff\xfe\n')
        with pytest.raises(TraceError, match="not UTF-8"):
            load_trace(p)

    def test_non_count_attribute_raises_trace_error(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(
            '{"type": "span", "name": "engine.batch", "id": 1, '
            '"attrs": {"configs": "many"}}\n'
        )
        with pytest.raises(TraceError, match="'configs'"):
            trace_summary_for_path(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("\n\n")
        with pytest.raises(TraceError, match="empty"):
            load_trace(p)


# ----------------------------------------------------------------------
# integration: the instrumented pipeline


from repro.driver.compiler import TuningDriver  # noqa: E402
from repro.experiments import make_setup  # noqa: E402
from repro.machine.model import WESTMERE  # noqa: E402
from repro.optimizer import RSGDE3  # noqa: E402
from repro.optimizer.gde3 import GDE3Settings  # noqa: E402
from repro.optimizer.random_search import random_search  # noqa: E402
from repro.optimizer.rsgde3 import RSGDE3Settings  # noqa: E402

_SMALL = RSGDE3Settings(gde3=GDE3Settings(population_size=12), max_generations=6)


class TestOptimizerTelemetry:
    def _run(self, workers=1, obs=None):
        problem = make_setup("mm", WESTMERE).problem(
            seed=11, workers=workers, obs=obs
        )
        return RSGDE3(problem, _SMALL).run(seed=4), problem

    def test_rsgde3_convergence_records(self):
        result, _ = self._run()
        records = result.convergence
        assert len(records) == result.generations + 1  # generation 0 included
        assert records[0].generation == 0
        assert records[0].accepted == _SMALL.gde3.population_size
        assert [r.generation for r in records] == list(range(len(records)))
        evals = [r.evaluations for r in records]
        assert evals == sorted(evals)
        assert records[-1].evaluations == result.evaluations
        assert all(r.front_size >= 1 for r in records)
        assert all(r.hypervolume > 0 for r in records)
        # hv_history stays in lockstep with the richer records
        assert [(r.evaluations, r.hypervolume) for r in records] == list(
            result.hv_history
        )

    def test_trajectory_bit_identical_across_workers(self):
        """Acceptance: the convergence telemetry, not just the front, must
        be bit-identical for any evaluation-engine worker count."""
        r1, _ = self._run(workers=1)
        r8, _ = self._run(workers=8)
        assert r1.convergence == r8.convergence

    def test_random_search_emits_batch_records(self):
        problem = make_setup("mm", WESTMERE).problem(seed=11)
        result = random_search(problem, budget=60, seed=1)
        assert result.convergence
        assert result.convergence[-1].evaluations == result.evaluations
        sizes = [r.front_size for r in result.convergence]
        assert all(s >= 1 for s in sizes)

    def test_generation_events_flow_into_trace(self):
        obs = Observability.tracing(clock=FakeClock(tick=1e-4))
        result, _ = self._run(obs=obs)
        events = [
            r for r in obs.tracer.records()
            if r["type"] == "event" and r["name"] == "optimizer.generation"
        ]
        assert len(events) == len(result.convergence)
        assert [e["attrs"]["generation"] for e in events] == [
            r.generation for r in result.convergence
        ]
        # events are parented to the optimizer.run span
        runs = [
            r for r in obs.tracer.records()
            if r["type"] == "span" and r["name"] == "optimizer.run"
        ]
        assert len(runs) == 1
        assert {e["span"] for e in events} == {runs[0]["id"]}
        assert runs[0]["attrs"]["algorithm"] == "rsgde3"
        assert obs.metrics.as_dict()[
            "repro_optimizer_generations_total"
        ] == len(events)


class TestEndToEndTrace:
    def test_traced_tune_covers_all_layers(self):
        obs = Observability.tracing(clock=FakeClock(tick=1e-4))
        driver = TuningDriver(
            machine=WESTMERE, seed=0, settings=_SMALL, obs=obs
        )
        tuned = driver.tune_kernel("mm", sizes={"N": 200})
        chosen = tuned.preview_selections()
        records = obs.tracer.records()
        span_names = {r["name"] for r in records if r["type"] == "span"}
        event_names = {r["name"] for r in records if r["type"] == "event"}
        assert {
            "driver.analyze", "driver.optimize", "driver.finalize",
            "optimizer.run", "engine.batch", "runtime.preview",
        } <= span_names
        assert {"optimizer.generation", "runtime.selection"} <= event_names

        # engine spans account for every configuration the optimizer asked for
        batches = [
            r for r in records
            if r["type"] == "span" and r["name"] == "engine.batch"
        ]
        stats = tuned.engine_stats
        assert sum(b["attrs"]["configs"] for b in batches) == stats.configs
        assert stats.configs == stats.dispatched + stats.cache_hits + stats.deduped

        # the runtime half: one decision per core policy, fastest picks the
        # lowest-time version (index 0 after the fastest-first sort)
        selections = [
            r for r in records
            if r["type"] == "event" and r["name"] == "runtime.selection"
        ]
        assert len(selections) == 3
        assert set(chosen) == {"fastest", "efficient", "balanced"}
        assert chosen["fastest"] == 0
        for e in selections:
            assert e["attrs"]["predicted_time"] > 0
            assert e["attrs"]["actual_time"] is None  # previewed, not executed

        metrics = obs.metrics.as_dict()
        assert metrics["repro_engine_batches_total"] == stats.batches
        assert metrics["repro_runtime_selections_total"] == 3
