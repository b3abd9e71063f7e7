"""Generated workloads live for one executor call, not for the process.

Suites, campaigns and worker lane groups build each generated workload
through the run's :class:`~repro.scenarios.base.WorkloadMemo`: cells
over one generator share one build, and no payload outlives the call
(a long-lived worker process must not keep every workload it ran).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.fastpath import fit_bundle
from repro.scenarios import (
    DigitalTwin,
    ExperimentSuite,
    GeneratedScenario,
    GridSweepScenario,
)
from repro.service.workers import _run_group
from repro.workloads import DiurnalWorkload
from tests.conftest import make_small_spec


class _Jobs(list):
    """A job list that takes weak references."""


class _Conn:
    """The worker pipe end, without a peer: records what is sent."""

    def __init__(self) -> None:
        self.sent: list[dict] = []

    def send(self, msg: dict) -> None:
        self.sent.append(msg)

    def poll(self) -> bool:
        return False


@pytest.fixture
def built(monkeypatch):
    """Weak references to every job list ``DiurnalWorkload`` generates."""
    refs: list[weakref.ref] = []
    generate = DiurnalWorkload.generate

    def tracked(self, spec, duration_s):
        jobs = _Jobs(generate(self, spec, duration_s))
        refs.append(weakref.ref(jobs))
        return jobs

    monkeypatch.setattr(DiurnalWorkload, "generate", tracked)
    return refs


def _six_seeds() -> list[GeneratedScenario]:
    return [
        GeneratedScenario(
            name=f"s{seed}",
            duration_s=300.0,
            with_cooling=False,
            workload=DiurnalWorkload(seed=seed),
        )
        for seed in range(6)
    ]


def _dead(refs: list[weakref.ref]) -> bool:
    gc.collect()
    return all(ref() is None for ref in refs)


def test_suite_keeps_no_generated_workload(built):
    outcome = ExperimentSuite(make_small_spec(), _six_seeds()).run()
    assert len(outcome) == 6 and len(built) == 6
    assert _dead(built)


def test_worker_group_keeps_no_generated_workload(built):
    conn = _Conn()
    msg = {
        "jobs": [(f"j{i}", s.to_dict()) for i, s in enumerate(_six_seeds())]
    }
    _run_group(conn, DigitalTwin(make_small_spec()), msg)
    done = [m for m in conn.sent if m["event"] == "done"]
    assert len(done) == 6 and len(built) == 6
    assert _dead(built)


def _wetbulb_grid(fidelity="full"):
    return GridSweepScenario(
        base=GeneratedScenario(
            duration_s=300.0,
            workload=DiurnalWorkload(seed=1),
            fidelity=fidelity,
        ),
        grid={"wetbulb_c": (12.0, 16.0, 20.0, 24.0)},
    )


def test_serial_wetbulb_grid_generates_once(built):
    outcome = ExperimentSuite(make_small_spec(), [_wetbulb_grid()]).run()
    assert len(outcome) == 4
    assert len(built) == 1


def test_serial_surrogate_wetbulb_grid_generates_once(built):
    spec = make_small_spec()
    # A small attached bundle: surrogate cells never train a default.
    bundle = fit_bundle(
        spec,
        cooling=True,
        cooling_grid=3,
        cooling_degree=2,
        settle_s=900.0,
        tail_samples=20,
    )
    twin = DigitalTwin(spec, surrogates=bundle)
    outcome = ExperimentSuite(twin, [_wetbulb_grid("surrogate")]).run()
    assert len(outcome) == 4
    assert len(built) == 1
