"""Shared electrical runs: weather variants of one workload in a batch.

Scheduling and power never read the wet-bulb or a cooling output, so
:class:`~repro.batch.engine.BatchedEngine` builds each distinct
workload once per ``run`` (a :class:`~repro.scenarios.base.WorkloadMemo`)
and lets lanes with equal electrical inputs follow one
:class:`~repro.core.engine.ElectricalRun`.  Every lane must still equal
its solo ``scenario.run(twin)`` bit for bit, and every result must own
its jobs and scheduler stats.  Cells are Setonix, at most 900 s.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro.scenarios.library as library
from repro.batch import BatchedEngine
from repro.cli import main as cli_main
from repro.config.loader import load_builtin_system
from repro.core.events import FaultEvent
from repro.core.profiling import PhaseProfiler
from repro.obs import MetricsRegistry, use_registry
from repro.scenarios import DigitalTwin, GeneratedScenario, SyntheticScenario
from repro.scenarios.base import WorkloadMemo
from repro.scenarios.library import WhatIfScenario
from repro.service.warmcache import WarmStateCache
from repro.telemetry.synthesis import SyntheticTelemetryGenerator
from repro.workloads import DiurnalWorkload
from tests.conftest import assert_bitidentical

CELL_S = 900.0


@pytest.fixture(scope="module")
def twin():
    return DigitalTwin(
        load_builtin_system("setonix"), warm_cache=WarmStateCache()
    )


def _batched(scenarios, twin):
    """One batched run: its results, shared-lane count and registry."""
    engine = BatchedEngine(scenarios, twin)
    with use_registry(MetricsRegistry()) as reg:
        results = engine.run()
    return results, engine, reg


def _assert_solo(results, scenarios, twin) -> None:
    for result, scenario in zip(results, scenarios):
        assert_bitidentical(
            result, scenario.run(twin), label=f"lane {scenario.name}"
        )


@dataclasses.dataclass(frozen=True)
class _FaultySynthetic(SyntheticScenario):
    """A synthetic cell with a node outage and a CDU blockage."""

    def plan(self, twin, **kwargs):
        plan = super().plan(twin, **kwargs)
        return dataclasses.replace(
            plan,
            events=(
                FaultEvent(120.0, "node-down", nodes=tuple(range(40))),
                FaultEvent(300.0, "cdu-blockage", cdu_index=1, severity=3.0),
                FaultEvent(600.0, "node-up", nodes=tuple(range(40))),
            ),
        )


def test_weather_grid_shares_runs_bit_identically(twin):
    """A 4 x 4 wet-bulb x seed grid is four electrical runs: twelve
    lanes follow, and every lane equals its solo run."""
    scenarios = [
        SyntheticScenario(
            name=f"wb{wb:g}-s{seed}",
            duration_s=CELL_S,
            seed=seed,
            wetbulb_c=wb,
        )
        for wb in (12.0, 16.0, 20.0, 24.0)
        for seed in (3, 5, 8, 13)
    ]
    results, engine, reg = _batched(scenarios, twin)
    assert engine.shared_lanes == 12
    assert reg.value("repro_batch_shared_lanes_total") == 12
    _assert_solo(results, scenarios, twin)


def test_policies_do_not_share(twin):
    """One seed under two policies is two runs; a policy left to the
    spec's default shares with the same policy named explicitly."""
    scenarios = [
        SyntheticScenario(
            name="fcfs", duration_s=CELL_S, seed=4, wetbulb_c=14.0,
            policy="fcfs",
        ),
        SyntheticScenario(
            name="sjf", duration_s=CELL_S, seed=4, wetbulb_c=18.0,
            policy="sjf",
        ),
        SyntheticScenario(
            name="default", duration_s=CELL_S, seed=4, wetbulb_c=22.0,
        ),
    ]
    assert twin.spec.scheduler.policy == "fcfs"
    results, engine, _ = _batched(scenarios, twin)
    assert engine.shared_lanes == 1
    _assert_solo(results, scenarios, twin)


def test_lane_with_events_runs_alone(twin):
    """A node-down plus cdu-blockage stream beside event-free twins of
    its workload: the faulty lane keeps its own run, the two event-free
    lanes share one, and all three equal their solo runs."""
    scenarios = [
        SyntheticScenario(name="clean-a", duration_s=CELL_S, seed=6),
        _FaultySynthetic(
            name="faulty", duration_s=CELL_S, seed=6, wetbulb_c=15.0
        ),
        SyntheticScenario(
            name="clean-b", duration_s=CELL_S, seed=6, wetbulb_c=21.0
        ),
    ]
    results, engine, _ = _batched(scenarios, twin)
    assert engine.shared_lanes == 1
    # Same workload and wet-bulb as clean-a: only the events differ.
    assert not np.array_equal(
        results[1].result.system_power_w, results[0].result.system_power_w
    )
    _assert_solo(results, scenarios, twin)


def test_whatif_shares_its_workload_build_not_its_run(twin, monkeypatch):
    """A what-if's baseline and modified lanes build the replay job
    list once, but run apart (their chains differ)."""
    builds = []
    build = library.jobs_from_dataset

    def counting(data):
        builds.append(data)
        return build(data)

    monkeypatch.setattr(library, "jobs_from_dataset", counting)
    scenario = WhatIfScenario(
        name="dc", modification="direct-dc", duration_s=CELL_S, seed=2
    )
    (result,), engine, _ = _batched([scenario], twin)
    assert len(builds) == 1
    assert engine.shared_lanes == 0
    builds.clear()
    assert_bitidentical(result, scenario.run(twin), label="what-if")
    assert len(builds) == 2  # serial runs build per plan, as before


def test_generated_weather_grid_shares_one_run(twin):
    """Four wet-bulbs over one generated workload build it once and run
    one schedule and power stream: three lanes follow, 8 power
    evaluations in all, and every lane equals its solo run."""
    scenarios = [
        GeneratedScenario(
            name=f"gen-wb{wb:g}",
            duration_s=300.0,
            workload=DiurnalWorkload(seed=1),
            wetbulb_c=wb,
        )
        for wb in (12.0, 16.0, 20.0, 24.0)
    ]
    results, engine, reg = _batched(scenarios, twin)
    assert engine.shared_lanes == 3
    assert reg.value("repro_batch_shared_lanes_total") == 3
    assert engine.power_evals == 8
    _assert_solo(results, scenarios, twin)


def test_whatifs_on_one_seed_share_day_and_baseline(twin, monkeypatch):
    """Two what-ifs on one seed synthesise one telemetry day, and their
    baseline replays (both on the spec's chain) share one run."""
    days = []
    day = SyntheticTelemetryGenerator.day

    def counting(self, index):
        days.append(index)
        return day(self, index)

    monkeypatch.setattr(SyntheticTelemetryGenerator, "day", counting)
    scenarios = [
        WhatIfScenario(
            name=mod, modification=mod, duration_s=300.0, seed=3
        )
        for mod in ("direct-dc", "smart-rectifier")
    ]
    results, engine, _ = _batched(scenarios, twin)
    assert days == [0]
    assert engine.shared_lanes == 1
    _assert_solo(results, scenarios, twin)


def test_each_run_builds_its_own_workloads(twin, monkeypatch):
    """The memo lives for one run: a second batch pays its own
    synthesis."""
    calls = []
    synth = library.synthetic_workload

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return synth(*args, **kwargs)

    monkeypatch.setattr(library, "synthetic_workload", counting)
    scenarios = [
        SyntheticScenario(
            name=f"{wb:g}-{seed}", duration_s=300.0, seed=seed, wetbulb_c=wb
        )
        for wb in (14.0, 19.0)
        for seed in (0, 1)
    ]
    _batched(scenarios, twin)
    _batched(scenarios, twin)
    assert calls == [0, 1, 0, 1]


def test_sibling_results_are_independent(twin):
    """Two lanes of one run: mutating one result's jobs or scheduler
    stats leaves the other's unchanged."""
    scenarios = [
        SyntheticScenario(name="a", duration_s=CELL_S, seed=9, wetbulb_c=w)
        for w in (13.0, 23.0)
    ]
    (a, b), engine, _ = _batched(scenarios, twin)
    assert engine.shared_lanes == 1
    jobs_b = [(j.job_id, j.start_time) for j in b.result.jobs]
    stats_b = dataclasses.replace(
        b.result.scheduler_stats,
        wait_times=list(b.result.scheduler_stats.wait_times),
    )
    assert a.result.jobs
    a.result.jobs[0].start_time = -1.0
    a.result.jobs.pop()
    a.result.scheduler_stats.completed += 7
    a.result.scheduler_stats.wait_times.append(1e9)
    assert [(j.job_id, j.start_time) for j in b.result.jobs] == jobs_b
    assert b.result.scheduler_stats == stats_b


def test_memo_builds_once_with_read_only_traces(twin):
    """Equal keys get the one template list; its trace arrays raise on
    write, and a checkout is fresh unstarted jobs over the same arrays."""
    memo = WorkloadMemo()
    scenario = SyntheticScenario(duration_s=CELL_S, seed=1)
    first = scenario.plan(twin, workloads=memo).jobs
    again = SyntheticScenario(
        duration_s=CELL_S, seed=1, wetbulb_c=25.0
    ).plan(twin, workloads=memo).jobs
    assert again is first and memo.built(first)
    with pytest.raises(ValueError, match="read-only"):
        first[0].cpu_util[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        first[0].gpu_util[:] = 0.0
    fresh = memo.checkout(first)
    assert fresh is not first
    for job, template in zip(fresh, first):
        assert job is not template and job.start_time is None
        assert np.shares_memory(job.cpu_util, template.cpu_util)
        assert not job.cpu_util.flags.writeable
    plain = scenario.plan(twin).jobs
    assert memo.checkout(plain) is plain
    assert plain[0].cpu_util.flags.writeable


def test_shared_run_traces_stay_read_only(twin):
    """After a shared run, the jobs a result holds still carry the
    read-only traces."""
    scenarios = [
        SyntheticScenario(name=f"{w:g}", duration_s=300.0, seed=2,
                          wetbulb_c=w)
        for w in (11.0, 17.0)
    ]
    results, engine, _ = _batched(scenarios, twin)
    assert engine.shared_lanes == 1
    for result in results:
        with pytest.raises(ValueError, match="read-only"):
            result.result.jobs[0].cpu_util[0] = 1.0


def test_profiler_reports_plan_and_cooling_split(twin):
    """The batched profiler times plan building and splits cooling into
    its kernel step and its records; power counts electrical runs."""
    scenarios = [
        SyntheticScenario(name=f"{w:g}", duration_s=300.0, seed=4,
                          wetbulb_c=w)
        for w in (12.0, 20.0)
    ]
    engine = BatchedEngine(scenarios, twin)
    engine.profiler = PhaseProfiler()
    engine.run()
    doc = engine.profiler.as_dict()
    phases = doc["phases"]
    assert phases["plan"]["calls"] == 2
    assert (
        phases["cooling"]["calls"]
        == phases["cooling.advance"]["calls"]
        == phases["cooling.records"]["calls"]
        == 20
    )
    inner = (
        phases["cooling.advance"]["total_s"]
        + phases["cooling.records"]["total_s"]
    )
    assert inner <= phases["cooling"]["total_s"] + 1e-6
    top = sum(
        row["total_s"] for name, row in phases.items() if "." not in name
    )
    assert top <= doc["wall_s"]
    assert doc["unattributed_s"] == pytest.approx(
        doc["wall_s"] - top, abs=1e-5
    )
    assert engine.shared_lanes == 1
    assert engine.power_evals + engine.power_reuses == 20


def test_profile_cli_reports_shared_lanes(capsys):
    rc = cli_main(
        [
            "profile", "--system", "marconi100", "--hours", "0.05",
            "--no-cooling", "--mode", "batched",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["shared_lanes"] == 0
    assert doc["phases"]["plan"]["calls"] == 1
