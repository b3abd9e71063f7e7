"""Each scenario's outcome leaves the batched engine as its last lane ends.

:meth:`~repro.batch.engine.BatchedEngine.run` hands every outcome to
``on_result`` once, right after the quantum its scenario's last lane
ends in, and every consumer takes it from there: a batched campaign
persists each cell as it ends, and a batched server finishes each
member of a lane group with its own ``done`` and ``elapsed_s``.  A
consumer that raises inside the lane loop still leaves every coupled
FMU synced to the steps taken.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.batch.engine
from repro.batch import BatchedEngine
from repro.cooling.fmu import CoolingFMU, FmuState
from repro.exceptions import FMUError
from repro.scenarios import Campaign, DigitalTwin, SyntheticScenario
from repro.scenarios.library import (
    GridSweepScenario,
    ReplayScenario,
    WhatIfScenario,
)
from repro.service import TwinClient, TwinServer
from repro.service.warmcache import WarmStateCache
from repro.service.workers import _run_group
from repro.telemetry.dataset import TimeSeries
from repro.telemetry.synthesis import SyntheticTelemetryGenerator
from tests.conftest import assert_same_state, make_small_spec


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


def test_outcome_leaves_as_its_last_lane_ends(spec):
    """A 900 s synthetic cell and a 900 s what-if (two lanes) beside a
    3600 s cell: both short outcomes come after their last steps, in
    caller order, and before the long lane's step at 900 s; each is the
    object ``run`` returns."""
    scenarios = [
        SyntheticScenario(name="short", duration_s=900.0, seed=1),
        SyntheticScenario(name="long", duration_s=3600.0, seed=2),
        WhatIfScenario(
            name="whatif",
            modification="direct-dc",
            duration_s=900.0,
            seed=3,
        ),
    ]
    events = []
    handed = {}

    def on_result(index, outcome):
        events.append(("result", index))
        handed[index] = outcome

    outcomes = BatchedEngine(scenarios, DigitalTwin(spec)).run(
        on_step=lambda index, step: events.append(("step", index, step.index)),
        on_result=on_result,
    )
    results = [e for e in events if e[0] == "result"]
    assert results == [("result", 0), ("result", 2), ("result", 1)]
    long_at_900 = events.index(("step", 1, 60))
    for index in (0, 2):
        last_step = max(
            pos for pos, e in enumerate(events) if e[:2] == ("step", index)
        )
        assert last_step < events.index(("result", index)) < long_at_900
    assert events[-1] == ("result", 1)
    assert all(handed[i] is outcomes[i] for i in range(len(scenarios)))


def _heatwave(spec, tmp_path) -> ReplayScenario:
    """A replay whose wet-bulb climbs 20 -> 60 degC after 300 s, so it
    fails at 46 degC, about 495 s in."""
    day = SyntheticTelemetryGenerator(spec, seed=11).day(0)
    day.series["wetbulb_temperature"] = TimeSeries(
        np.array([0.0, 300.0, 600.0]), np.array([20.0, 20.0, 60.0]), "degC"
    )
    day.save(tmp_path / "heatwave")
    return ReplayScenario(
        name="heatwave",
        dataset_path=str(tmp_path / "heatwave"),
        duration_s=600.0,
    )


def test_batched_campaign_persists_cells_as_they_end(spec, tmp_path):
    """A 300 s cell ends before the heatwave lane fails: its result is
    persisted, so only the heatwave cell is left to run."""
    cells = [
        SyntheticScenario(name="short", duration_s=300.0),
        _heatwave(spec, tmp_path),
    ]
    path = tmp_path / "campaign"
    campaign = Campaign.create(path, cells, system=spec)
    with pytest.raises(FMUError, match=r"implausible wet-bulb 46\.0 degC"):
        campaign.run(execution="batched")
    pending = Campaign.open(path).pending()
    assert [(index, cell.name) for index, cell in pending] == [
        (1, "heatwave")
    ]


def test_raising_consumer_syncs_the_fmus_at_once(spec, monkeypatch):
    """An ``on_step`` that raises on the fifth step: while the traceback
    is still held, each coupled lane's FMU equals a solo engine's FMU
    closed after five steps."""
    fmus = []

    class RecordedFMU(CoolingFMU):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fmus.append(self)

    monkeypatch.setattr(repro.batch.engine, "CoolingFMU", RecordedFMU)
    scenarios = [
        SyntheticScenario(duration_s=600.0, seed=seed) for seed in (4, 5)
    ]
    twin = DigitalTwin(spec)

    def on_step(index, step):
        if step.index == 4:
            raise RuntimeError("consumer failed")

    with pytest.raises(RuntimeError, match="consumer failed") as excinfo:
        BatchedEngine(scenarios, twin).run(on_step=on_step)
    assert excinfo.value.__traceback__ is not None
    assert len(fmus) == len(scenarios)
    for fmu, scenario in zip(fmus, scenarios):
        assert fmu.time == 75.0
        assert fmu.state is FmuState.STEPPING
        plan = scenario.plan(twin)
        solo = scenario.build_engine(twin, plan)
        steps = solo.iter_steps(
            plan.jobs, plan.duration_s, wetbulb=plan.wetbulb
        )
        for _ in range(5):
            next(steps)
        steps.close()
        assert_same_state(fmu.get_state(), solo.fmu.get_state())
        np.testing.assert_array_equal(
            fmu.get_outputs(), solo.fmu.get_outputs()
        )


def test_served_member_finishes_before_its_longer_sibling(spec, tmp_path):
    """A batched server runs a 900 s and a 3600 s cell as one lane
    group: the short cell's ``done`` arrives before the long cell's last
    step, with the smaller ``elapsed_s``."""
    sweep = GridSweepScenario(
        base=SyntheticScenario(with_cooling=False, seed=6),
        grid={"duration_s": (900.0, 3600.0)},
    )
    with TwinServer(
        spec, workers=1, store=tmp_path / "store", execution="batched"
    ) as server:
        events = []
        handle = server._on_worker_event

        def record(index, msg):
            events.append((msg.get("event"), msg.get("job_id")))
            handle(index, msg)

        server._on_worker_event = record
        client = TwinClient(server.url)
        short, long = client.submit_all(sweep, use_cache=False)
        for job in (short, long):
            assert client.wait(job["id"])["state"] == "done"
        last_long_step = max(
            pos
            for pos, event in enumerate(events)
            if event == ("step", long["id"])
        )
        assert events.index(("done", short["id"])) < last_long_step
        assert (
            server.jobs[short["id"]].elapsed_s
            < server.jobs[long["id"]].elapsed_s
        )


class _WorkerPipe:
    """A worker's end of its pipe: records what the worker sends, and
    holds the next group back until a ``done`` is sent (as a server
    would send it once every member is terminal)."""

    def __init__(self, control, next_group):
        self.sent = []
        self.control = list(control)
        self.next_group = next_group

    def send(self, msg):
        self.sent.append(msg)
        if msg["event"] == "done" and self.next_group is not None:
            self.control.append(self.next_group)
            self.next_group = None

    def poll(self):
        return bool(self.control)

    def recv(self):
        return self.control.pop(0)


def test_worker_stops_once_every_member_is_terminal(spec):
    """The long member is cancelled at once; after the short member's
    ``done`` no member is live, so the worker stops the group without
    reading the pipe, and the next group stays there for its loop."""
    short = SyntheticScenario(duration_s=900.0, with_cooling=False, seed=7)
    long = SyntheticScenario(duration_s=3600.0, with_cooling=False, seed=8)
    next_group = {"cmd": "run", "jobs": [("next", short.to_dict())]}
    conn = _WorkerPipe([{"cmd": "cancel", "job_id": "long"}], next_group)
    twin = DigitalTwin(spec, warm_cache=WarmStateCache())
    group = [("short", short.to_dict()), ("long", long.to_dict())]
    _run_group(conn, twin, {"cmd": "run", "jobs": group})
    assert conn.control == [next_group]
    terminal = [
        (msg["event"], msg["job_id"])
        for msg in conn.sent
        if msg["event"] != "step"
    ]
    assert terminal == [("cancelled", "long"), ("done", "short")]
    steps = [msg["job_id"] for msg in conn.sent if msg["event"] == "step"]
    assert steps.count("short") == 60 and steps.count("long") == 1
