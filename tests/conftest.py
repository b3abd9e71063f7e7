"""Shared fixtures: system specs sized for fast tests, RNG, generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.config.schema import (
    CoolingSpec,
    EconomicsSpec,
    NodeSpec,
    PartitionSpec,
    RackSpec,
    SchedulerSpec,
    SystemSpec,
)


@pytest.fixture(scope="session")
def frontier():
    """The full Frontier spec (9472 nodes)."""
    return frontier_spec()


def make_small_spec(
    *, total_nodes: int = 256, num_cdus: int = 2, racks_per_cdu: int = 1
) -> SystemSpec:
    """A Frontier-flavored miniature for fast engine tests."""
    partition = PartitionSpec(
        name="mini",
        total_nodes=total_nodes,
        node=NodeSpec(),
        rack=RackSpec(),
    )
    return SystemSpec(
        name="mini",
        partitions=(partition,),
        cooling=CoolingSpec(num_cdus=num_cdus, racks_per_cdu=racks_per_cdu),
        scheduler=SchedulerSpec(policy="fcfs", mean_arrival_s=60.0),
        economics=EconomicsSpec(),
    )


@pytest.fixture()
def small_spec():
    """256-node miniature system (2 racks, 2 CDUs)."""
    return make_small_spec()


@pytest.fixture()
def rng():
    """Deterministic NumPy generator for tests."""
    return np.random.default_rng(12345)


# -- bit-identity comparison ---------------------------------------------------

#: The array series of a SimulationResult that every execution path
#: (serial, parallel, streamed, batched) must reproduce exactly.
RESULT_SERIES = (
    "times_s",
    "system_power_w",
    "loss_w",
    "sivoc_loss_w",
    "rectifier_loss_w",
    "chain_efficiency",
    "utilization",
    "num_running",
    "cdu_power_w",
    "cdu_heat_w",
)


def _assert_series_identical(actual, expected, label: str) -> None:
    """Equal values, dtype and shape: a count column turned float, or a
    row that lost its CDU axis, fails even where its values compare
    equal."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, (
        f"{label}: dtype {actual.dtype} != {expected.dtype}"
    )
    assert actual.shape == expected.shape, (
        f"{label}: shape {actual.shape} != {expected.shape}"
    )
    np.testing.assert_array_equal(actual, expected, err_msg=label)


def _assert_cooling_bitidentical(actual, expected, label: str) -> None:
    assert set(actual) == set(expected), (
        f"{label}: cooling keys differ: "
        f"{sorted(set(actual) ^ set(expected))}"
    )
    for key in expected:
        _assert_series_identical(
            actual[key], expected[key], f"{label}: cooling[{key}]"
        )


def _assert_result_bitidentical(actual, expected, label: str) -> None:
    for name in RESULT_SERIES:
        _assert_series_identical(
            getattr(actual, name), getattr(expected, name), f"{label}: {name}"
        )
    _assert_cooling_bitidentical(actual.cooling, expected.cooling, label)
    assert actual.scheduler_stats == expected.scheduler_stats, (
        f"{label}: scheduler_stats differ"
    )


def _step_arrays(step) -> dict:
    """The per-CDU arrays of a step, which its step record leaves out."""
    arrays = {"cdu_power_w": step.cdu_power_w, "cdu_heat_w": step.cdu_heat_w}
    for key, value in step.cooling.items():
        if np.ndim(value):
            arrays[f"cooling[{key}]"] = value
    return arrays


def _assert_step_streams_bitidentical(actual, expected, label: str) -> None:
    from repro.core.engine import StepState
    from repro.viz.export import step_record

    actual, expected = list(actual), list(expected)
    assert len(actual) == len(expected), (
        f"{label}: {len(actual)} steps vs {len(expected)}"
    )
    for k, (a, b) in enumerate(zip(actual, expected)):
        if isinstance(a, StepState) and isinstance(b, StepState):
            arrays_a, arrays_b = _step_arrays(a), _step_arrays(b)
            assert arrays_a.keys() == arrays_b.keys(), f"{label}: step {k}"
            for name in arrays_b:
                _assert_series_identical(
                    arrays_a[name], arrays_b[name], f"{label}: step {k} {name}"
                )
        a = step_record(a) if isinstance(a, StepState) else a
        b = step_record(b) if isinstance(b, StepState) else b
        assert a == b, f"{label}: step {k} differs: {a!r} != {b!r}"


def assert_bitidentical(actual, expected, *, label: str = "result") -> None:
    """Assert two execution outcomes are **exactly** equal, bit for bit.

    Accepts, on both sides: a :class:`~repro.scenarios.result.ScenarioResult`,
    a :class:`~repro.core.engine.SimulationResult`, a cooling series
    mapping, or a step stream (a sequence of
    :class:`~repro.core.engine.StepState` or step-record dicts).
    Comparisons are ``np.testing.assert_array_equal`` — never a
    tolerance — because every alternate execution path in this repo
    (fused kernel, change detection, warm plants, parallel workers,
    streamed service jobs, batched lanes) promises the *same bits* as
    the plain serial engine, not merely close ones.
    """
    from repro.core.engine import SimulationResult

    a, b = actual, expected
    if (
        hasattr(a, "result")
        and hasattr(a, "statistics")
        and hasattr(b, "result")
        and hasattr(b, "statistics")
    ):
        # ScenarioResult: sweep containers compare child by child,
        # counterfactuals compare both replays.
        assert len(a.children) == len(b.children), (
            f"{label}: {len(a.children)} children vs {len(b.children)}"
        )
        for i, (ca, cb) in enumerate(zip(a.children, b.children)):
            assert_bitidentical(ca, cb, label=f"{label}: child {i}")
        if a.baseline is not None or b.baseline is not None:
            _assert_result_bitidentical(
                a.baseline, b.baseline, f"{label}: baseline"
            )
        if a.result is None and b.result is None:
            return
        a = a.result
        b = b.result
    if isinstance(a, SimulationResult) and isinstance(b, SimulationResult):
        _assert_result_bitidentical(a, b, label)
    elif isinstance(a, dict) and isinstance(b, dict):
        _assert_cooling_bitidentical(a, b, label)
    else:
        _assert_step_streams_bitidentical(a, b, label)


def assert_same_state(actual, expected, path: str = "state") -> None:
    """Exact equality of two object trees (plant graphs, PlantStates).

    Recurses through attributes, mappings and sequences; arrays compare
    with ``np.testing.assert_array_equal`` plus their dtype, everything
    else with ``==`` and its type.
    """
    assert type(actual) is type(expected), (
        f"{path}: {type(actual).__name__} vs {type(expected).__name__}"
    )
    if isinstance(expected, np.ndarray):
        np.testing.assert_array_equal(actual, expected, err_msg=path)
        assert actual.dtype == expected.dtype, path
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), path
        for key in expected:
            assert_same_state(actual[key], expected[key], f"{path}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for i, (a, b) in enumerate(zip(actual, expected)):
            assert_same_state(a, b, f"{path}[{i}]")
    elif hasattr(expected, "__dict__"):
        assert_same_state(vars(actual), vars(expected), path)
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def batched_lanes(scenarios, twin):
    """Run laneable ``scenarios`` as one batch; their lanes, in order.

    The lanes keep their FMUs, so a test can read each lane's plant
    after the batched run ends.
    """
    from repro.batch.engine import BatchedEngine, _Lane

    lanes = [
        _Lane(i, scenario, twin, scenario.plan(twin))
        for i, scenario in enumerate(scenarios)
    ]
    BatchedEngine(scenarios, twin)._run_lanes(list(lanes))
    return lanes


def solo_run(scenario, twin):
    """The serial engine and its step stream, ``scenario`` run alone."""
    plan = scenario.plan(twin)
    engine = scenario.build_engine(twin, plan)
    steps = list(
        engine.iter_steps(
            plan.jobs, plan.duration_s, wetbulb=plan.wetbulb,
            events=plan.events,
        )
    )
    return engine, steps


def assert_lanes_match_solo(lanes, twin) -> None:
    """Every lane's steps (the rows of its columns) equal its solo
    run's; every coupled lane's FMU state and plant graph too, once the
    batched run has ended."""
    for lane in lanes:
        engine, steps = solo_run(lane.scenario, twin)
        label = f"lane {lane.index} ({lane.scenario.name})"
        rows = [lane.state(k) for k in range(lane.n_steps)]
        assert_bitidentical(rows, steps, label=label)
        if lane.fmu is None:
            continue
        solo = engine.fmu
        assert lane.fmu.time == solo.time, label
        assert_same_state(
            lane.fmu.get_state(), solo.get_state(), f"{label} get_state()"
        )
        assert_same_state(
            lane.fmu._plant.snapshot(),
            solo._plant.snapshot(),
            f"{label} snapshot()",
        )


@pytest.fixture(scope="session")
def assert_steps_bitidentical():
    """The shared exact-equality assertion (see :func:`assert_bitidentical`)."""
    return assert_bitidentical
