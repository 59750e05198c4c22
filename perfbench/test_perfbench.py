"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import bench, hostspeed, run, spans
from perfbench.jobs import WORKLOADS, Job, job_seed, make_workload
from perfbench.quality import front_problem, normalized_hv

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> list[str]:
    return [m["name"] for m in SPEC[section]]


def test_workload_names_agree():
    assert run.WORKLOADS == WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metric_tables_match_benchmark_json():
    assert list(bench.END_TO_END) == _names("end_to_end")
    assert list(bench.PER_LAYER) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert units == {**bench.END_TO_END, **bench.PER_LAYER}


def test_every_per_layer_metric_is_mapped_in_the_readme():
    readme = (bench.ROOT / "perfbench" / "README.md").read_text()
    for name in _names("per_layer"):
        assert f"`{name}`" in readme, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_untraced_run_is_correct(workload):
    out = bench.run_workload(workload, seed=3, seconds=1, trace=False, max_jobs=2, import_samples=1)
    assert out["correct"], out
    assert (out["attempted"], out["failed"]) == (2, 0)
    assert list(out["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values()), out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_traced_run_reports_layers_and_removes_its_wrappers(workload):
    before = spans.patch_targets()
    out = bench.run_workload(workload, seed=3, seconds=1, trace=True, max_jobs=1, import_samples=1)
    after = spans.patch_targets()
    assert out["correct"], out
    assert list(out["metrics"]) == _names("per_layer")
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__perfbench_wrapper__", False) for v in after.values())


def test_cut_off_run_is_measured_not_failed(monkeypatch):
    monkeypatch.setattr(bench, "RUN_CUTOFF_S", 0.0)
    out = bench.run_workload("grid", seed=3, seconds=1, trace=False, max_jobs=3, import_samples=1)
    assert out["correct"], out
    assert (out["attempted"], out["failed"]) == (1, 0)
    metrics = out["metrics"]
    assert metrics["wall_s"]["value"] == pytest.approx(3 * metrics["job_s.p50"]["value"])


def test_tune_warm_replays_one_pass(tmp_path):
    jobs = make_workload("tune-warm", tmp_path).jobs(seed=5, passes=3)
    assert len(jobs) == 120 and len(set(jobs)) == 40
    assert jobs[:40] == jobs[40:80] == jobs[80:]


def test_wrappers_are_removed_when_the_traced_call_raises():
    before = spans.patch_targets()
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            raise RuntimeError("boom")
    assert all(spans.patch_targets()[k] is v for k, v in before.items())


def test_traced_spans_cover_the_layers_of_a_tune_job(tmp_path):
    workload = make_workload("tune", tmp_path)
    job = Job("mm", "westmere", job_seed(0, "test"))
    recorder = spans.Recorder()
    with spans.traced(recorder), recorder.job_span("j"):
        workload.run(job)
    names = {s.name for s in recorder.spans}
    assert {"job", "driver.tune_kernel", "optimizer.propose", "cost.time_batch", "backend.emit_c"} <= names
    metrics = spans.layer_metrics(recorder, ["j"], accepted=0)
    assert 0 <= metrics["driver.unattributed_frac"] < 0.5
    assert metrics["target.self_s"] <= metrics["target.compute_s"]


def test_command_prints_one_json_line_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == set(_names("end_to_end"))


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_clock_reports_reference_speed_seconds(monkeypatch):
    samples = iter([0.012, 0.004, 0.006])
    monkeypatch.setattr(hostspeed, "reference_seconds", lambda: next(samples))
    monkeypatch.setattr(hostspeed, "FRESH_S", 60.0)
    clock = hostspeed.HostClock()
    out, measured, corrected = clock.time(lambda x: x + 1, 1)
    assert out == 2
    # bracketed by 0.012 and 0.004: a host at half the nominal speed
    assert corrected == pytest.approx(measured * hostspeed.NOMINAL_REFERENCE_S / 0.008)
    # the sample after the first call is fresh, so it is the one before the second
    _, measured, corrected = clock.time(lambda: None)
    assert corrected == pytest.approx(measured * hostspeed.NOMINAL_REFERENCE_S / 0.005)
    assert clock.samples == [0.012, 0.004, 0.006]


def test_front_problem_uses_pairwise_dominance():
    assert front_problem([(1.0, 2.0), (2.0, 1.0)], 2) is None
    assert "dominates" in front_problem([(1.0, 1.0), (2.0, 2.0)], 2)
    assert "non-finite" in front_problem([(1.0, float("nan"))], 2)
    assert front_problem([], 2) == "empty front"


def test_normalized_hv_bounds():
    ideal, nadir = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    assert normalized_hv([ideal], ideal, nadir) == pytest.approx(1.0)
    assert normalized_hv([nadir], ideal, nadir) == pytest.approx((0.1 / 1.1) ** 3)
    # staircase: (1.1 - 0) * (1.1 - 1) + (1.1 - 1) * (1 - 0), over 1.1^2
    two = normalized_hv([(0.0, 1.0), (1.0, 0.0)], (0.0, 0.0), (1.0, 1.0))
    assert two == pytest.approx(0.21 / 1.21)
