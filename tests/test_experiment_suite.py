"""ExperimentSuite: batch execution, parallel determinism, suite files."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config.loader import dump_system
from repro.exceptions import ScenarioError
from repro.scenarios import (
    ExperimentSuite,
    GridSweepScenario,
    Scenario,
    SweepScenario,
    SyntheticScenario,
    VerificationScenario,
    WhatIfScenario,
)
from tests.conftest import make_small_spec


def _suite_of_four(spec):
    return ExperimentSuite(
        spec,
        [
            SyntheticScenario(
                name=f"synth-{seed}",
                duration_s=600.0,
                seed=seed,
                with_cooling=False,
            )
            for seed in range(4)
        ],
    )


class TestSerialExecution:
    def test_results_in_submission_order(self):
        outcome = _suite_of_four(make_small_spec()).run(workers=1)
        assert [r.name for r in outcome] == [f"synth-{i}" for i in range(4)]

    def test_lookup_by_name_and_index(self):
        outcome = _suite_of_four(make_small_spec()).run()
        assert outcome["synth-2"] is outcome[2]
        with pytest.raises(KeyError):
            outcome["nope"]

    def test_empty_suite_rejected(self):
        with pytest.raises(ScenarioError, match="no scenarios"):
            ExperimentSuite(make_small_spec()).run()

    def test_sweep_expands_in_suite(self):
        suite = ExperimentSuite(
            make_small_spec(),
            [
                SweepScenario(
                    base=SyntheticScenario(
                        duration_s=600.0, with_cooling=False
                    ),
                    parameter="seed",
                    values=(0, 1, 2),
                )
            ],
        )
        assert len(suite.expanded()) == 3
        outcome = suite.run()
        assert len(outcome) == 3
        assert outcome[1].scenario.seed == 1

    def test_comparison_table_lists_all(self):
        outcome = _suite_of_four(make_small_spec()).run()
        table = outcome.comparison_table()
        for i in range(4):
            assert f"synth-{i}" in table
        assert "power MW" in table

    def test_progress_callback_fires(self):
        calls = []
        _suite_of_four(make_small_spec()).run(
            progress=lambda s, done, total: calls.append((s.name, done, total))
        )
        assert len(calls) == 4
        assert calls[-1][1:] == (4, 4)


class TestParallelDeterminism:
    """suite.run(workers=4) must be bit-identical to workers=1."""

    def test_parallel_matches_serial_bitwise(self):
        spec = make_small_spec()
        serial = _suite_of_four(spec).run(workers=1)
        parallel = _suite_of_four(spec).run(workers=4)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.name == b.name
            for attr in (
                "times_s",
                "system_power_w",
                "loss_w",
                "chain_efficiency",
                "utilization",
                "num_running",
                "cdu_power_w",
                "cdu_heat_w",
            ):
                assert np.array_equal(
                    getattr(a.result, attr), getattr(b.result, attr)
                ), attr

    def test_parallel_mixed_scenario_kinds(self):
        spec = make_small_spec()
        scenarios = [
            VerificationScenario(
                name="idle", point="idle", duration_s=300.0, with_cooling=False
            ),
            VerificationScenario(
                name="peak", point="peak", duration_s=300.0, with_cooling=False
            ),
            SyntheticScenario(
                name="synth", duration_s=600.0, seed=1, with_cooling=False
            ),
            WhatIfScenario(
                name="dc", modification="direct-dc", duration_s=600.0, seed=2
            ),
        ]
        serial = ExperimentSuite(spec, scenarios).run(workers=1)
        parallel = ExperimentSuite(spec, scenarios).run(workers=4)
        for a, b in zip(serial, parallel):
            assert np.array_equal(
                a.result.system_power_w, b.result.system_power_w
            )
        assert (
            serial["dc"].comparison.annual_savings_usd
            == parallel["dc"].comparison.annual_savings_usd
        )


class TestSuiteFiles:
    def test_from_file_array_document(self, tmp_path):
        spec_path = tmp_path / "mini.json"
        dump_system(make_small_spec(), spec_path)
        doc = [
            {
                "kind": "verification",
                "name": "idle",
                "point": "idle",
                "duration_s": 300.0,
                "with_cooling": False,
            }
        ]
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(doc))
        suite = ExperimentSuite.from_file(suite_path, system=spec_path)
        outcome = suite.run()
        assert outcome["idle"].result.mean_power_w > 0

    def test_from_file_object_document(self, tmp_path):
        spec_path = tmp_path / "mini.json"
        dump_system(make_small_spec(), spec_path)
        doc = {
            "system": str(spec_path),
            "scenarios": [
                {
                    "kind": "synthetic",
                    "duration_s": 300.0,
                    "with_cooling": False,
                }
            ],
        }
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(doc))
        suite = ExperimentSuite.from_file(suite_path)
        assert suite.twin.spec.name == "mini"
        assert len(suite.scenarios) == 1

    def test_from_file_object_grids_and_ranges(self, tmp_path):
        """A hand-written suite may give a grid-sweep's ``grid`` and an
        lhs-sweep's ``ranges`` as JSON objects, not only as the pair
        lists ``to_dict`` writes."""
        base = {
            "kind": "synthetic", "duration_s": 300.0, "with_cooling": False
        }
        doc = [
            {
                "kind": "grid-sweep",
                "name": "grid",
                "base": base,
                "grid": {"wetbulb_c": [12, 20], "seed": [0, 1]},
            },
            {
                "kind": "lhs-sweep",
                "name": "lhs",
                "base": base,
                "ranges": {"seed": [0, 9]},
                "samples": 3,
            },
        ]
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(doc))
        grid, lhs = ExperimentSuite.from_file(
            suite_path, system=make_small_spec()
        ).scenarios
        assert grid == GridSweepScenario(
            name="grid",
            base=SyntheticScenario(duration_s=300.0, with_cooling=False),
            grid=(("wetbulb_c", (12, 20)), ("seed", (0, 1))),
        )
        assert len(grid.expand()) == 4
        assert lhs.ranges == (("seed", 0, 9),)
        assert len(lhs.expand()) == 3
        # The written form still round-trips.
        assert Scenario.from_json(grid.to_json()) == grid
        assert Scenario.from_json(lhs.to_json()) == lhs

    def test_from_file_non_scenario_base_names_the_field(self, tmp_path):
        doc = [
            {
                "kind": "grid-sweep",
                "base": {"duration_s": 300.0},
                "grid": {"seed": [0, 1]},
            }
        ]
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="'base' must be a scenario"):
            ExperimentSuite.from_file(suite_path, system=make_small_spec())

    def test_from_file_missing_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            ExperimentSuite.from_file(tmp_path / "nope.json")

    def test_to_dicts_roundtrip(self):
        suite = _suite_of_four(make_small_spec())
        docs = suite.to_dicts()
        assert [d["name"] for d in docs] == [f"synth-{i}" for i in range(4)]
