"""Scenario API: declarative round-trips and execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ScenarioError
from repro.scenarios import (
    SCENARIO_TYPES,
    BenchmarkSequenceScenario,
    DigitalTwin,
    GridSweepScenario,
    LatinHypercubeSweepScenario,
    ReplayScenario,
    Scenario,
    SweepScenario,
    SyntheticScenario,
    VerificationScenario,
    WhatIfScenario,
)
from tests.conftest import make_small_spec


@pytest.fixture()
def twin():
    return DigitalTwin(make_small_spec())


class TestSerialization:
    """Scenario.from_dict(s.to_dict()) == s for every scenario kind."""

    CASES = [
        SyntheticScenario(duration_s=900.0, seed=7, wetbulb_c=18.5),
        ReplayScenario(dataset_path="/data/day0", duration_s=3600.0),
        VerificationScenario(point="hpl", duration_s=600.0, with_cooling=False),
        BenchmarkSequenceScenario(node_count=4096, wetbulb_c=21.0),
        WhatIfScenario(modification="smart-rectifier", seed=3),
        SweepScenario(
            base=SyntheticScenario(duration_s=600.0, with_cooling=False),
            parameter="seed",
            values=(0, 1, 2),
        ),
        GridSweepScenario(
            base=SyntheticScenario(duration_s=600.0, with_cooling=False),
            grid={"wetbulb_c": (12.0, 18.0), "seed": (0, 1)},
        ),
        LatinHypercubeSweepScenario(
            base=SyntheticScenario(duration_s=600.0, with_cooling=False),
            ranges={"wetbulb_c": (5.0, 25.0)},
            samples=4,
            seed=9,
        ),
    ]

    @pytest.mark.parametrize("scenario", CASES, ids=lambda s: s.kind)
    def test_dict_roundtrip(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @pytest.mark.parametrize("scenario", CASES, ids=lambda s: s.kind)
    def test_json_roundtrip(self, scenario):
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_all_kinds_registered(self):
        assert {
            "synthetic",
            "replay",
            "verification",
            "benchmark-sequence",
            "whatif",
            "sweep",
            "grid-sweep",
            "lhs-sweep",
        } <= set(SCENARIO_TYPES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario kind"):
            Scenario.from_dict({"kind": "nope"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            Scenario.from_dict({"kind": "synthetic", "bogus": 1})

    def test_default_name_is_kind(self):
        assert SyntheticScenario().name == "synthetic"

    def test_bad_duration_rejected(self):
        with pytest.raises(ScenarioError, match="duration_s"):
            SyntheticScenario(duration_s=0.0)

    def test_bad_verification_point_rejected(self):
        with pytest.raises(ScenarioError, match="verification point"):
            VerificationScenario(point="turbo")

    def test_benchmark_sequence_validates_node_count(self):
        with pytest.raises(ScenarioError, match="node_count"):
            BenchmarkSequenceScenario(node_count=0)
        with pytest.raises(ScenarioError, match="node_count"):
            BenchmarkSequenceScenario(node_count=2.5)


class TestExecution:
    def test_synthetic_runs(self, twin):
        outcome = SyntheticScenario(
            duration_s=900.0, seed=1, with_cooling=False
        ).run(twin)
        assert outcome.result.mean_power_w > 0
        assert outcome.statistics is not None
        assert outcome.kind == "synthetic"

    def test_verification_runs_and_honors_recorded(self, twin):
        outcome = VerificationScenario(
            point="peak", duration_s=300.0, with_cooling=False
        ).run(twin)
        # All nodes at 100 %: utilization saturates.
        assert outcome.result.utilization[-1] == pytest.approx(1.0)

    def test_benchmark_sequence_runs_hpl_after_idle_gap(self, twin):
        outcome = BenchmarkSequenceScenario(
            duration_s=3600.0, node_count=128, with_cooling=False
        ).run(twin)
        result = outcome.result
        idle = result.system_power_w[result.times_s < 1500.0].mean()
        hpl = result.system_power_w[result.times_s > 2400.0].mean()
        # HPL starts at its recorded t=1800 s and lifts the power.
        assert hpl > idle * 1.2
        assert result.num_running[result.times_s < 1500.0].max() == 0

    def test_whatif_produces_comparison(self, twin):
        outcome = WhatIfScenario(
            modification="direct-dc", duration_s=900.0, seed=2
        ).run(twin)
        assert outcome.comparison is not None
        assert outcome.baseline is not None
        assert outcome.comparison.efficiency_gain_percent > 0

    def test_sweep_runs_children(self, twin):
        sweep = SweepScenario(
            base=SyntheticScenario(duration_s=600.0, with_cooling=False),
            parameter="seed",
            values=(0, 1),
        )
        outcome = sweep.run(twin)
        assert len(outcome.children) == 2
        assert outcome.children[0].scenario.seed == 0
        assert outcome.children[1].scenario.seed == 1

    def test_sweep_rejects_unknown_parameter(self):
        sweep = SweepScenario(
            base=SyntheticScenario(), parameter="warp_factor", values=(9,)
        )
        with pytest.raises(ScenarioError, match="warp_factor"):
            sweep.expand()

    def test_replay_needs_a_dataset(self, twin):
        with pytest.raises(ScenarioError, match="dataset"):
            ReplayScenario(duration_s=600.0).run(twin)

    def test_scenario_accepts_spec_name_or_twin(self):
        spec = make_small_spec()
        s = VerificationScenario(
            point="idle", duration_s=300.0, with_cooling=False
        )
        by_spec = s.run(spec)
        by_twin = s.run(DigitalTwin(spec))
        assert np.array_equal(
            by_spec.result.system_power_w, by_twin.result.system_power_w
        )

    def test_iter_steps_streams(self, twin):
        s = SyntheticScenario(duration_s=600.0, seed=4, with_cooling=False)
        steps = list(s.iter_steps(twin))
        assert len(steps) == 40
        assert steps[0].index == 0
