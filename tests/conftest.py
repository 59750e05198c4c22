"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.regions import extract_regions
from repro.evaluation.cost import RegionCostModel
from repro.evaluation.simulator import SimulatedTarget
from repro.frontend.kernels import ALL_KERNELS, get_kernel
from repro.machine.model import BARCELONA, WESTMERE


@pytest.fixture(params=sorted(ALL_KERNELS))
def kernel(request):
    """Parametrized over all five benchmark kernels."""
    return get_kernel(request.param)


@pytest.fixture(params=[WESTMERE, BARCELONA], ids=lambda m: m.name)
def machine(request):
    return request.param


@pytest.fixture
def mm_region():
    return extract_regions(get_kernel("mm").function)[0]


@pytest.fixture
def mm_model(mm_region):
    return RegionCostModel(mm_region, {"N": 1400}, WESTMERE)


@pytest.fixture
def mm_target(mm_model):
    return SimulatedTarget(mm_model, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _call_bounded(fn, *args, seconds: float = 20.0, **kwargs):
    """Call ``fn(*args, **kwargs)`` on a daemon thread and return its result
    or re-raise its exception (SystemExit included); fail the test instead
    of hanging when it has not returned after *seconds* of wall time."""
    outcome: dict = {}

    def run():
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"{getattr(fn, '__name__', fn)} did not return within {seconds} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture
def bounded():
    """Wall-clock-bounded call: ``bounded(fn, *args, seconds=20)``."""
    return _call_bounded
