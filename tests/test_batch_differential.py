"""Differential bit-identity suite: the batched engine vs serial runs.

Every scenario kind in :mod:`repro.scenarios.library` (plus the
``generated`` kind with a fault-event stream from
:mod:`repro.workloads.faults`) is executed twice — once per scenario
through the plain serial ``scenario.run(twin)`` path, once as one
:class:`~repro.batch.engine.BatchedEngine` call — and the outcomes must
match **exactly**: ``np.testing.assert_array_equal`` on every series,
never a tolerance.  Batching is an overhead eliminator, not a different
model; any ULP of drift here is a bug.

Batch widths follow the acceptance grid B ∈ {1, 4, 16}.  Scenario kinds
the engine cannot lane-align (sweep containers, what-ifs) exercise the
serial-fallback path inside ``run_batched`` and must be exact for the
same trivial reason the laneable kinds must be exact for a deep one.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchedEngine, run_batched
from repro.config.loader import load_builtin_system
from repro.scenarios import DigitalTwin, SyntheticScenario
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


def _compare(scenarios, spec, *, twins=None) -> None:
    """Serial references vs one batched run, exact equality per lane."""
    if twins is None:
        serial = [s.run(DigitalTwin(spec)) for s in scenarios]
        batched = run_batched(scenarios, DigitalTwin(spec))
    else:
        serial = [
            s.run(DigitalTwin(t.spec)) for s, t in zip(scenarios, twins)
        ]
        batched = run_batched(scenarios, twins=twins)
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


def test_heterogeneous_specs_pad_cleanly(spec):
    """Lanes over different node/CDU counts (per-lane twins) — narrow
    lanes are padded to the widest and must not feel the padding."""
    small = make_small_spec(total_nodes=96, num_cdus=1)
    twins = [
        DigitalTwin(spec),
        DigitalTwin(small),
        DigitalTwin(spec),
        DigitalTwin(small),
    ]
    scenarios = [
        SyntheticScenario(
            name=f"h-{v}", duration_s=DUR, seed=v, wetbulb_c=11.0 + 3.0 * v
        )
        for v in range(4)
    ]
    _compare(scenarios, spec, twins=twins)


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


def test_engine_counters_and_progress(spec):
    """The batched engine exposes change-detection counters and fires
    the (done, total) progress callback once per scenario."""
    scenarios = [
        SyntheticScenario(duration_s=DUR, seed=v, with_cooling=False)
        for v in range(3)
    ]
    engine = BatchedEngine(scenarios, DigitalTwin(spec))
    ticks = []
    engine.run(progress=lambda done, total: ticks.append((done, total)))
    assert ticks == [(1, 3), (2, 3), (3, 3)]
    assert engine.power_evals > 0
    assert engine.power_reuses > 0
