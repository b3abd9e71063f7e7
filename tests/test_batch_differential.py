"""Differential bit-identity suite: the batched engine vs serial runs.

Every scenario kind in :mod:`repro.scenarios.library` (plus the
``generated`` kind with a fault-event stream from
:mod:`repro.workloads.faults`) is executed twice — once per scenario
through the plain serial ``scenario.run(twin)`` path, once as one
:class:`~repro.batch.engine.BatchedEngine` call — and the outcomes must
match **exactly**: ``np.testing.assert_array_equal`` on every series,
never a tolerance.  Batching is an overhead eliminator, not a different
model; any ULP of drift here is a bug.

Batch widths follow the acceptance grid B ∈ {1, 4, 16}.  A what-if is
two lanes (its baseline and modified replays, the second carrying its
own conversion chain).  Scenario kinds the engine cannot lane-align
(sweep containers) exercise the serial-fallback path inside
``run_batched`` and must be exact for the same trivial reason the
laneable kinds must be exact for a deep one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchedEngine, run_batched
from repro.config.loader import load_builtin_system
from repro.exceptions import FMUError
from repro.scenarios import DigitalTwin, Scenario, SyntheticScenario
from repro.scenarios.generated import GeneratedScenario
from repro.scenarios.library import (
    BenchmarkSequenceScenario,
    GridSweepScenario,
    LatinHypercubeSweepScenario,
    ReplayScenario,
    SweepScenario,
    VerificationScenario,
    WhatIfScenario,
)
from repro.service.warmcache import WarmStateCache
from repro.telemetry.dataset import TimeSeries
from repro.telemetry.synthesis import SyntheticTelemetryGenerator
from repro.workloads.arrivals import DiurnalWorkload
from repro.workloads.faults import FaultInjection
from tests.conftest import (
    assert_bitidentical,
    assert_lanes_match_solo,
    batched_lanes,
    make_small_spec,
)

DUR = 600.0


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.fixture(scope="module")
def dataset_path(spec, tmp_path_factory):
    """A saved synthetic telemetry day for the replay kind."""
    path = tmp_path_factory.mktemp("telemetry") / "day0"
    SyntheticTelemetryGenerator(spec, seed=11).day(0).save(path)
    return str(path)


def _faults(variant: int) -> FaultInjection:
    """A dense fault stream: node churn plus a clearing CDU blockage."""
    return FaultInjection(
        seed=100 + variant,
        node_mtbf_s=200.0,
        mean_outage_s=150.0,
        nodes_per_failure=1 + variant % 2,
        cdu_blockage_time_s=150.0,
        cdu_index=variant % 2,
        cdu_blockage_severity=2.0 + variant,
        cdu_clear_time_s=450.0,
    )


def _kind_builders(dataset_path: str):
    """One constructor per scenario kind, varied by a lane index."""
    return {
        "synthetic": lambda v: SyntheticScenario(
            name=f"syn-{v}", duration_s=DUR, seed=v, wetbulb_c=10.0 + v
        ),
        "synthetic-uncoupled": lambda v: SyntheticScenario(
            name=f"dry-{v}", duration_s=DUR, seed=v, with_cooling=False
        ),
        "generated": lambda v: GeneratedScenario(
            name=f"gen-{v}",
            duration_s=DUR,
            workload=DiurnalWorkload(seed=v, mean_arrival_s=90.0),
            faults=_faults(v),
            wetbulb_c=14.0 + v,
        ),
        "verification": lambda v: VerificationScenario(
            name=f"ver-{v}",
            point=("idle", "hpl", "peak")[v % 3],
            duration_s=DUR,
        ),
        "benchmark-sequence": lambda v: BenchmarkSequenceScenario(
            name=f"bench-{v}", duration_s=DUR, node_count=96 + 32 * (v % 3)
        ),
        "replay": lambda v: ReplayScenario(
            name=f"replay-{v}", dataset_path=dataset_path, duration_s=DUR
        ),
        "whatif": lambda v: WhatIfScenario(
            name=f"whatif-{v}",
            modification=("direct-dc", "smart-rectifier")[v % 2],
            duration_s=DUR,
            seed=v,
        ),
        "sweep": lambda v: SweepScenario(
            name=f"sweep-{v}",
            base=SyntheticScenario(
                duration_s=DUR, seed=v, with_cooling=False
            ),
            parameter="seed",
            values=(v, v + 1),
        ),
        "grid-sweep": lambda v: GridSweepScenario(
            name=f"grid-{v}",
            base=SyntheticScenario(
                duration_s=DUR, seed=v, with_cooling=False
            ),
            grid={"wetbulb_c": (12.0,), "seed": (v, v + 1)},
        ),
        "lhs-sweep": lambda v: LatinHypercubeSweepScenario(
            name=f"lhs-{v}",
            base=SyntheticScenario(
                duration_s=DUR, seed=v, with_cooling=False
            ),
            ranges={"seed": (0, 50)},
            samples=2,
            seed=v,
        ),
    }


def _compare(scenarios, spec) -> None:
    """Serial references vs one batched run, exact equality per lane."""
    serial = [s.run(DigitalTwin(spec)) for s in scenarios]
    batched = run_batched(scenarios, DigitalTwin(spec))
    assert len(batched) == len(scenarios)
    for i, (a, b) in enumerate(zip(batched, serial)):
        assert_bitidentical(
            a, b, label=f"lane {i} ({scenarios[i].name})"
        )


KINDS = sorted(_kind_builders(""))


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_single_lane(kind, spec, dataset_path):
    """B=1: every scenario kind, batched ≡ serial bit for bit."""
    scenario = _kind_builders(dataset_path)[kind](1)
    _compare([scenario], spec)


@pytest.mark.parametrize("batch", [4, 16])
def test_mixed_kind_batches(batch, spec, dataset_path):
    """B ∈ {4, 16}: lanes cycle through the kind roster (laneable kinds
    batch together, the rest take the fallback path in the same call)."""
    builders = _kind_builders(dataset_path)
    order = KINDS
    scenarios = [
        builders[order[i % len(order)]](i) for i in range(batch)
    ]
    _compare(scenarios, spec)


def test_fault_streams_across_lanes(spec):
    """Four lanes of distinct fault-event streams (node churn, CDU
    blockages, a draining maintenance window) stay bit-identical."""
    scenarios = [
        GeneratedScenario(
            name=f"faulty-{v}",
            duration_s=900.0,
            workload=DiurnalWorkload(seed=v, mean_arrival_s=75.0),
            faults=FaultInjection(
                seed=v,
                node_mtbf_s=180.0,
                mean_outage_s=120.0,
                nodes_per_failure=2,
                maintenance_start_s=300.0,
                maintenance_s=240.0,
                maintenance_nodes=16,
                cdu_blockage_time_s=120.0 + 60.0 * v,
                cdu_index=v % 2,
                cdu_blockage_severity=3.0,
                cdu_clear_time_s=600.0,
            ),
            wetbulb_c=16.0,
        )
        for v in range(4)
    ]
    _compare(scenarios, spec)


def test_mixed_durations_shrink_the_batch(spec):
    """Lanes of different lengths: short lanes drop off the active
    prefix mid-run without perturbing the survivors."""
    scenarios = [
        SyntheticScenario(
            name=f"d-{v}",
            duration_s=300.0 * (v + 1),
            seed=v,
            wetbulb_c=15.0,
        )
        for v in range(4)
    ]
    _compare(scenarios, spec)


def test_mid_run_blockage_in_mixed_durations(spec):
    """B=8 lanes of four lengths; one lane's CDU blocks mid-run.  The
    blockage reaches that lane's resident kernel row, every lane stays
    bit-identical, and every plant graph syncs to its solo run's."""
    scenarios = [
        SyntheticScenario(
            name=f"m-{v}",
            duration_s=150.0 * (1 + v % 4),
            seed=v,
            wetbulb_c=12.0 + v,
        )
        for v in range(7)
    ]
    scenarios.insert(
        3,
        GeneratedScenario(
            name="blocked",
            duration_s=450.0,
            workload=DiurnalWorkload(seed=3, mean_arrival_s=60.0),
            faults=FaultInjection(
                seed=3,
                node_mtbf_s=1e9,
                cdu_blockage_time_s=200.0,
                cdu_index=1,
                cdu_blockage_severity=3.0,
            ),
            wetbulb_c=15.0,
        ),
    )
    twin = DigitalTwin(spec)
    lanes = batched_lanes(scenarios, twin)
    blocked = lanes[3].fmu._plant.cdus.blockage_factor
    assert blocked.tolist() == [1.0, 3.0]
    assert_lanes_match_solo(lanes, twin)


def test_lane_rejects_implausible_wetbulb(spec, tmp_path):
    """A replay whose wet-bulb climbs 20 -> 60 degC after 300 s: the
    solo run stops at the first implausible sample, and so does the
    batch holding it as a lane."""
    day = SyntheticTelemetryGenerator(spec, seed=11).day(0)
    day.series["wetbulb_temperature"] = TimeSeries(
        np.array([0.0, 300.0, 600.0]), np.array([20.0, 20.0, 60.0]), "degC"
    )
    day.save(tmp_path / "heatwave")
    scenario = ReplayScenario(
        name="heatwave", dataset_path=str(tmp_path / "heatwave"),
        duration_s=DUR,
    )
    twin = DigitalTwin(spec)
    with pytest.raises(FMUError, match=r"implausible wet-bulb 46\.0 degC"):
        scenario.run(twin)
    with pytest.raises(FMUError, match=r"implausible wet-bulb 46\.0 degC"):
        run_batched(
            [SyntheticScenario(name="mild", duration_s=DUR), scenario], twin
        )


def test_setonix_b64_matches_solo_runs():
    """A short B=64 Setonix batch (the what-if campaign's shape): two
    lanes equal their solo runs bit for bit."""
    twin = DigitalTwin(
        load_builtin_system("setonix"), warm_cache=WarmStateCache()
    )
    scenarios = [
        SyntheticScenario(
            name=f"s-{v}",
            duration_s=900.0,
            seed=v,
            wetbulb_c=(12.0, 16.0, 20.0, 24.0)[v % 4],
        )
        for v in range(64)
    ]
    batched = run_batched(scenarios, twin)
    for v in (5, 62):
        assert_bitidentical(
            batched[v], scenarios[v].run(twin), label=f"setonix lane {v}"
        )



@pytest.mark.parametrize(
    "serial_first",
    [True, False],
    ids=["serial-then-batched", "batched-then-serial"],
)
def test_warm_cache_shared_across_engines(spec, serial_first):
    """One warm cache behind both engines: whichever engine runs second
    restores the plant the first one warmed (a cache hit), and both
    step streams equal a cold run's bit for bit."""
    scenario = SyntheticScenario(
        name="warm", duration_s=DUR, seed=4, wetbulb_c=18.0
    )
    cold = list(scenario.iter_steps(DigitalTwin(spec)))
    cache = WarmStateCache()
    twin = DigitalTwin(spec, warm_cache=cache)

    def serial():
        return list(scenario.iter_steps(twin))

    def batched():
        steps = []
        BatchedEngine([scenario], twin).run(
            on_step=lambda index, step: steps.append(step)
        )
        return steps

    runs = [("serial", serial), ("batched", batched)]
    if not serial_first:
        runs.reverse()
    (first_name, first), (second_name, second) = runs
    first_steps = first()
    assert (cache.hits, cache.misses) == (0, 1)
    second_steps = second()
    assert (cache.hits, cache.misses) == (1, 1)
    assert_bitidentical(first_steps, cold, label=f"{first_name} (miss)")
    assert_bitidentical(second_steps, cold, label=f"{second_name} (hit)")

def test_engine_counters_and_progress(spec):
    """The batched engine exposes change-detection counters and hands
    each scenario's outcome to ``on_result`` once."""
    scenarios = [
        SyntheticScenario(duration_s=DUR, seed=v, with_cooling=False)
        for v in range(3)
    ]
    engine = BatchedEngine(scenarios, DigitalTwin(spec))
    ticks = []
    engine.run(on_result=lambda index, outcome: ticks.append(index))
    assert ticks == [0, 1, 2]
    assert engine.power_evals > 0
    assert engine.power_reuses > 0


def test_whatifs_run_as_lanes(spec, monkeypatch):
    """B=6: synthetic lanes beside direct-dc what-ifs (coupled and
    uncoupled) and a smart-rectifier what-if, behind one warm cache.
    With ``Scenario.run`` disabled nothing can fall back to a serial
    run; every outcome (result, baseline, comparison) equals its solo
    run's, and every what-if streams its solo ``progress`` stream."""
    scenarios = [
        SyntheticScenario(name="syn-0", duration_s=DUR, seed=0),
        WhatIfScenario(
            name="dc-dry", modification="direct-dc", duration_s=DUR, seed=1
        ),
        WhatIfScenario(
            name="dc-wet",
            modification="direct-dc",
            duration_s=DUR,
            seed=2,
            with_cooling=True,
        ),
        SyntheticScenario(
            name="syn-1", duration_s=DUR, seed=3, with_cooling=False
        ),
        WhatIfScenario(
            name="smart",
            modification="smart-rectifier",
            duration_s=DUR,
            seed=4,
            with_cooling=True,
        ),
        SyntheticScenario(name="syn-2", duration_s=DUR, seed=5),
    ]
    solo = []
    for scenario in scenarios:
        steps = []
        outcome = scenario.run(DigitalTwin(spec), progress=steps.append)
        solo.append((outcome, steps))

    def no_serial_runs(self, *args, **kwargs):
        raise AssertionError(f"{self.name} fell back to a serial run")

    monkeypatch.setattr(Scenario, "run", no_serial_runs)
    records: dict[int, list] = {}
    outcomes = BatchedEngine(
        scenarios, DigitalTwin(spec, warm_cache=WarmStateCache())
    ).run(on_step=lambda i, step: records.setdefault(i, []).append(step))
    for i, (outcome, (reference, steps)) in enumerate(zip(outcomes, solo)):
        label = f"lane {i} ({scenarios[i].name})"
        assert_bitidentical(outcome, reference, label=label)
        assert outcome.comparison == reference.comparison, label
        if isinstance(scenarios[i], WhatIfScenario):
            assert outcome.baseline is not None, label
            assert_bitidentical(records[i], steps, label=f"{label} steps")
