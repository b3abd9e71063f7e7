"""The serial engine's end state against the reference-backend oracle.

On the fused backend :class:`~repro.core.engine.RapsEngine` keeps its
plant resident in a one-lane batched kernel and syncs its FMU once, when
the run ends; on the reference backend every quantum goes through the
FMU's ``do_step``.  After a full run, an early close and a mid-run CDU
blockage, the two FMUs must read the same clock, the same last state,
the same outputs and the same plant graph, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import RapsEngine
from repro.core.events import FaultEvent
from repro.exceptions import FMUError
from repro.scheduler.workloads import synthetic_workload
from repro.telemetry.dataset import TimeSeries
from tests.conftest import assert_bitidentical, assert_same_state, make_small_spec

DURATION_S = 600.0
WARMUP_S = 300.0
WETBULB = TimeSeries(
    np.array([0.0, 300.0, 600.0]), np.array([14.0, 17.5, 12.0]), "degC"
)


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.fixture()
def jobs(spec):
    """Fresh jobs per call: a run mutates the jobs it schedules."""
    return lambda: synthetic_workload(spec, DURATION_S, seed=4)


def _engines(spec):
    return [
        RapsEngine(spec, cooling_backend=backend)
        for backend in ("fused", "reference")
    ]


def _assert_same_end_state(
    fused: RapsEngine, reference: RapsEngine, *, inputs: bool = True
) -> None:
    """Same clock, last state and plant graph; with ``inputs``, the whole
    FMU state (last inputs, outputs and lifecycle too)."""
    a, b = fused.fmu, reference.fmu
    assert a.time == b.time
    assert_same_state(a.get_state(), b.get_state(), "get_state()")
    assert_same_state(a._plant.snapshot(), b._plant.snapshot(), "snapshot()")
    if inputs:
        assert_same_state(
            a.get_fmu_state(), b.get_fmu_state(), "get_fmu_state()"
        )


def test_full_run(spec, jobs):
    fused, reference = _engines(spec)
    results = [
        engine.run(jobs(), DURATION_S, wetbulb=WETBULB, warmup_cooling_s=WARMUP_S)
        for engine in (fused, reference)
    ]
    assert_bitidentical(*results, label="full run")
    assert fused.fmu.time == DURATION_S
    _assert_same_end_state(fused, reference)


@pytest.mark.parametrize("k", [1, 17])
def test_early_close(spec, jobs, k):
    """Closing the step stream after ``k`` quanta syncs the FMU to
    exactly those ``k`` steps."""
    fused, reference = _engines(spec)
    for engine in (fused, reference):
        steps = engine.iter_steps(
            jobs(), DURATION_S, wetbulb=WETBULB, warmup_cooling_s=WARMUP_S
        )
        for _ in range(k):
            next(steps)
        steps.close()
    assert fused.fmu.time == 15.0 * k
    _assert_same_end_state(fused, reference)


def test_stop_when(spec, jobs):
    fused, reference = _engines(spec)
    results = [
        engine.run(
            jobs(),
            DURATION_S,
            wetbulb=WETBULB,
            warmup_cooling_s=WARMUP_S,
            stop_when=lambda step: step.index == 9,
        )
        for engine in (fused, reference)
    ]
    assert_bitidentical(*results, label="stop_when")
    assert fused.fmu.time == 150.0
    _assert_same_end_state(fused, reference)


def test_mid_run_blockage(spec, jobs):
    """A ``cdu-blockage`` at 200 s reaches the resident row and the
    graph; both backends end on the same blocked plant."""
    events = [
        FaultEvent(200.0, "cdu-blockage", cdu_index=1, severity=3.0),
        FaultEvent(450.0, "cdu-blockage", cdu_index=0, severity=2.0),
    ]
    fused, reference = _engines(spec)
    results = [
        engine.run(
            jobs(),
            DURATION_S,
            wetbulb=WETBULB,
            warmup_cooling_s=WARMUP_S,
            events=events,
        )
        for engine in (fused, reference)
    ]
    assert_bitidentical(*results, label="blockage")
    assert fused.fmu._plant.cdus.blockage_factor.tolist() == [2.0, 3.0]
    _assert_same_end_state(fused, reference)


def test_raise_mid_run(spec, jobs):
    """A run that stops on an implausible wet-bulb sample still syncs
    the FMU to the steps before it.  (The reference FMU has taken the
    failed step's heat input before the wet-bulb check raised, so the
    last inputs are not compared.)"""
    heatwave = TimeSeries(
        np.array([0.0, 300.0, 600.0]), np.array([20.0, 20.0, 60.0]), "degC"
    )
    fused, reference = _engines(spec)
    for engine in (fused, reference):
        with pytest.raises(FMUError, match="implausible"):
            engine.run(
                jobs(), DURATION_S, wetbulb=heatwave, warmup_cooling_s=WARMUP_S
            )
    assert fused.fmu.time == 495.0
    _assert_same_end_state(fused, reference, inputs=False)


def test_engine_reuse_starts_from_a_fresh_plant(spec):
    """A second run on the same engine resets the FMU and builds a new
    resident kernel: it ends where a fresh reference engine ends."""
    fused, reference = _engines(spec)
    for _ in range(2):
        fused.run([], 300.0, wetbulb=WETBULB, warmup_cooling_s=WARMUP_S)
    reference.run([], 300.0, wetbulb=WETBULB, warmup_cooling_s=WARMUP_S)
    assert fused.fmu.time == 300.0
    _assert_same_end_state(fused, reference)
