"""Sweep campaigns: grid/LHS expansion, artifact round-trips, resume."""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main as cli_main
from repro.config.loader import dump_system
from repro.exceptions import ScenarioError
from repro.scenarios import (
    Campaign,
    CampaignStore,
    ExperimentSuite,
    GridSweepScenario,
    LatinHypercubeSweepScenario,
    Scenario,
    SyntheticScenario,
    WhatIfScenario,
    spec_sha256,
)
from repro.viz.campaign import campaign_comparison, campaign_heatmap
from tests.conftest import make_small_spec


def _grid_sweep(duration_s: float = 600.0) -> GridSweepScenario:
    return GridSweepScenario(
        base=SyntheticScenario(duration_s=duration_s, with_cooling=False),
        grid={"wetbulb_c": (12.0, 18.0, 24.0), "seed": (0, 1, 2, 3)},
    )


class TestGridSweep:
    def test_cartesian_expansion_last_axis_fastest(self):
        children = _grid_sweep().expand()
        assert len(children) == 12
        assert children[0].name == "synthetic/wetbulb_c=12,seed=0"
        assert children[1].name == "synthetic/wetbulb_c=12,seed=1"
        assert children[4].name == "synthetic/wetbulb_c=18,seed=0"
        assert children[0].wetbulb_c == 12.0 and children[0].seed == 0

    def test_mapping_normalizes_and_roundtrips(self):
        sweep = _grid_sweep()
        assert sweep.grid == (
            ("wetbulb_c", (12.0, 18.0, 24.0)),
            ("seed", (0, 1, 2, 3)),
        )
        assert Scenario.from_json(sweep.to_json()) == sweep
        assert sweep.shape() == (3, 4)
        assert sweep.parameters == ["wetbulb_c", "seed"]

    def test_suite_flattens_grid(self):
        suite = ExperimentSuite(make_small_spec(), [_grid_sweep()])
        assert len(suite.expanded()) == 12

    def test_empty_grid_rejected(self):
        sweep = GridSweepScenario(base=SyntheticScenario())
        with pytest.raises(ScenarioError, match="non-empty grid"):
            sweep.expand()

    def test_unknown_field_rejected(self):
        sweep = GridSweepScenario(
            base=SyntheticScenario(), grid={"warp_factor": (9,)}
        )
        with pytest.raises(ScenarioError, match="warp_factor"):
            sweep.expand()


class TestLatinHypercubeSweep:
    def _sweep(self, seed=7, samples=6):
        return LatinHypercubeSweepScenario(
            base=SyntheticScenario(duration_s=600.0, with_cooling=False),
            ranges={"wetbulb_c": (5.0, 25.0), "seed": (0, 100)},
            samples=samples,
            seed=seed,
        )

    def test_deterministic_under_fixed_seed(self):
        a = self._sweep().expand()
        b = self._sweep().expand()
        assert [c.name for c in a] == [c.name for c in b]
        assert [c.wetbulb_c for c in a] == [c.wetbulb_c for c in b]

    def test_different_seed_different_sample(self):
        a = self._sweep(seed=7).expand()
        b = self._sweep(seed=8).expand()
        assert [c.wetbulb_c for c in a] != [c.wetbulb_c for c in b]

    def test_stratification_one_point_per_bin(self):
        children = self._sweep(samples=10).expand()
        bins = sorted(int((c.wetbulb_c - 5.0) / 2.0) for c in children)
        assert bins == list(range(10))

    def test_integer_bounds_yield_integers(self):
        for child in self._sweep().expand():
            assert isinstance(child.seed, int)
            assert 0 <= child.seed < 100

    def test_roundtrips(self):
        sweep = self._sweep()
        assert Scenario.from_json(sweep.to_json()) == sweep

    def test_colliding_integer_samples_get_unique_names(self):
        # 8 samples over a 4-wide integer axis must collide in value but
        # never in name, or name-keyed joins would drop cells.
        sweep = LatinHypercubeSweepScenario(
            base=SyntheticScenario(duration_s=600.0, with_cooling=False),
            ranges={"seed": (0, 4)},
            samples=8,
            seed=1,
        )
        names = [c.name for c in sweep.expand()]
        assert len(names) == 8
        assert len(set(names)) == 8

    def test_bad_range_rejected(self):
        with pytest.raises(ScenarioError, match="low < high"):
            LatinHypercubeSweepScenario(
                base=SyntheticScenario(), ranges={"wetbulb_c": (9.0, 9.0)}
            )


class TestArtifactStore:
    def test_save_load_identical_comparison_table(self, tmp_path):
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp", [_grid_sweep()], system=spec
        )
        live = campaign.run()
        reloaded = Campaign.open(tmp_path / "camp").load()
        assert live.comparison_table() == reloaded.comparison_table()

    def test_reloaded_metrics_bit_exact(self, tmp_path):
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp", [_grid_sweep()], system=spec
        )
        live = campaign.run()
        reloaded = campaign.load()
        for a, b in zip(live, reloaded):
            assert a.name == b.name
            for key, value in a.metrics().items():
                stored = b.metrics()[key]
                if math.isnan(value):
                    assert math.isnan(stored)
                else:
                    assert stored == value  # exact float equality

    def test_statistics_and_series_roundtrip(self, tmp_path):
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp",
            [SyntheticScenario(duration_s=600.0, with_cooling=False)],
            system=spec,
        )
        live = campaign.run()
        stored = campaign.load()[0]
        assert stored.statistics == live[0].statistics
        assert stored.series["system_power_w"].tolist() == (
            live[0].result.system_power_w.tolist()
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_series_roundtrip_through_null(self, tmp_path):
        """NaN and +-inf series values are written as JSON null (the
        bytes of nulling the whole document value by value) and reload
        as NaN; a stored cell re-recorded writes the same line."""
        from repro.core.summary import result_series_doc
        from repro.scenarios.artifacts import _nulled_nans, result_to_cell_doc

        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp",
            [SyntheticScenario(duration_s=600.0, with_cooling=False)],
            system=spec,
        )
        outcome = campaign.run()[0]
        series = outcome.result.system_power_w
        series[1], series[2], series[3] = math.nan, math.inf, -math.inf
        store = campaign.store
        store.results_path.unlink()
        store.record(0, outcome, extra={"note": math.nan})
        line = store.results_path.read_text().splitlines()[0]
        doc = result_to_cell_doc(0, outcome)
        doc["series"] = result_series_doc(outcome.result)
        doc["note"] = math.nan
        assert line == json.dumps(_nulled_nans(doc), allow_nan=False)
        parsed = json.loads(line)
        assert parsed["series"]["system_power_w"][1:4] == [None] * 3
        assert parsed["note"] is None
        stored = campaign.load()[0]
        reloaded = stored.series["system_power_w"]
        assert reloaded.dtype == float
        assert math.isnan(reloaded[1])
        assert math.isnan(reloaded[2]) and math.isnan(reloaded[3])
        assert reloaded[4:].tolist() == series[4:].tolist()
        store.results_path.unlink()
        store.record(0, stored, extra={"note": math.nan})
        assert store.results_path.read_text().splitlines()[0] == line

    def test_whatif_comparison_roundtrips(self, tmp_path):
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp",
            [WhatIfScenario(modification="direct-dc", duration_s=600.0)],
            system=spec,
        )
        live = campaign.run()
        stored = campaign.load()[0]
        assert stored.comparison == live[0].comparison
        assert "Δeff pp" in stored.summary_row()
        assert stored.summary_row() == live[0].summary_row()

    def test_results_are_strict_json(self, tmp_path):
        # mean_pue is NaN on uncoupled runs; it must persist as null so
        # non-Python consumers (jq, JS) can read the artifact.
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp",
            [SyntheticScenario(duration_s=600.0, with_cooling=False)],
            system=spec,
        )
        campaign.run()

        def no_constants(token):  # NaN/Infinity would call this
            raise AssertionError(f"non-strict JSON token {token!r}")

        for line in campaign.store.results_path.read_text().splitlines():
            doc = json.loads(line, parse_constant=no_constants)
            assert doc["metrics"]["mean_pue"] is None
        # ...and reloads as NaN on the Python side.
        assert math.isnan(campaign.load()[0].metrics()["mean_pue"])

    def test_manifest_provenance(self, tmp_path):
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp", [_grid_sweep()], system=spec, name="wb-study"
        )
        manifest = json.loads(
            (tmp_path / "camp" / "manifest.json").read_text()
        )
        assert manifest["name"] == "wb-study"
        assert manifest["provenance"]["spec_sha256"] == spec_sha256(spec)
        assert len(manifest["cells"]) == 12
        # The embedded spec reloads to an equal twin.
        assert campaign.store.system_spec() == spec

    def test_spec_hash_stable_and_sensitive(self):
        a = make_small_spec()
        assert spec_sha256(a) == spec_sha256(make_small_spec())
        assert spec_sha256(a) != spec_sha256(
            make_small_spec(total_nodes=128)
        )

    def test_create_refuses_existing(self, tmp_path):
        spec = make_small_spec()
        Campaign.create(tmp_path / "camp", [_grid_sweep()], system=spec)
        with pytest.raises(ScenarioError, match="already exists"):
            Campaign.create(tmp_path / "camp", [_grid_sweep()], system=spec)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="manifest"):
            Campaign.open(tmp_path / "nope")

    def test_torn_trailing_line_ignored(self, tmp_path):
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp", [_grid_sweep()], system=spec
        )
        campaign.run(stop_after=3)
        results = campaign.store.results_path
        with results.open("a") as fh:
            fh.write('{"index": 3, "scenario": {"kind": "synth')  # torn
        reopened = Campaign.open(tmp_path / "camp")
        assert reopened.store.completed_indices() == {0, 1, 2}
        # Resume completes the campaign despite the torn tail.
        outcome = reopened.run()
        assert reopened.is_complete()
        assert len(outcome) == 12


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp", [_grid_sweep()], system=spec
        )
        campaign.run(stop_after=5)
        lines_before = campaign.store.results_path.read_text().splitlines()
        assert len(lines_before) == 5

        resumed = Campaign.open(tmp_path / "camp")
        assert len(resumed.pending()) == 7
        outcome = resumed.run()
        lines_after = resumed.store.results_path.read_text().splitlines()
        # Append-only: the first five lines are untouched (not re-run).
        assert lines_after[:5] == lines_before
        assert len(lines_after) == 12
        assert len(outcome) == 12

        # A fully-complete campaign runs nothing further.
        again = Campaign.open(tmp_path / "camp").run()
        assert (
            resumed.store.results_path.read_text().splitlines() == lines_after
        )
        assert len(again) == 12

    def test_resumed_cells_match_uninterrupted_run(self, tmp_path):
        spec = make_small_spec()
        a = Campaign.create(tmp_path / "a", [_grid_sweep()], system=spec)
        a.run(stop_after=5)
        Campaign.open(tmp_path / "a").run()
        b = Campaign.create(tmp_path / "b", [_grid_sweep()], system=spec)
        b.run()
        assert (
            a.load().comparison_table() == b.load().comparison_table()
        )

    def test_parallel_resume_matches_serial(self, tmp_path):
        spec = make_small_spec()
        a = Campaign.create(tmp_path / "a", [_grid_sweep()], system=spec)
        a.run(stop_after=4)
        Campaign.open(tmp_path / "a").run(workers=4)
        b = Campaign.create(tmp_path / "b", [_grid_sweep()], system=spec)
        b.run(workers=1)
        assert a.load().comparison_table() == b.load().comparison_table()

    def test_progress_counts_from_stored(self, tmp_path):
        spec = make_small_spec()
        campaign = Campaign.create(
            tmp_path / "camp", [_grid_sweep()], system=spec
        )
        campaign.run(stop_after=5)
        counts = []
        Campaign.open(tmp_path / "camp").run(
            progress=lambda s, done, total: counts.append((done, total))
        )
        assert counts[0] == (6, 12)
        assert counts[-1] == (12, 12)


class TestCampaignViz:
    def test_heatmap_renders_axes(self, tmp_path):
        spec = make_small_spec()
        sweep = _grid_sweep()
        campaign = Campaign.create(tmp_path / "camp", [sweep], system=spec)
        campaign.run()
        art = campaign_heatmap(campaign.load(), sweep, metric="mean_power_mw")
        assert "wetbulb_c[3] × seed[4]" in art
        assert "scale:" in art
        # One row per first-axis value.
        assert len(art.splitlines()) == 3 + 2

    def test_comparison_aligns_campaigns(self, tmp_path):
        spec = make_small_spec()
        sweep = _grid_sweep()
        a = Campaign.create(tmp_path / "a", [sweep], system=spec)
        a.run()
        b = Campaign.create(tmp_path / "b", [sweep], system=spec)
        b.run()
        table = campaign_comparison(
            [("a", a.load()), ("b", b.load())], metric="energy_mwh"
        )
        assert "Δ b" in table
        # Identical campaigns → zero deltas everywhere.
        assert "+0.0000" in table and "+0.1" not in table

    def test_comparison_nan_metric_renders_dash(self, tmp_path):
        # Uncoupled runs have NaN PUE: values and deltas must render as
        # "-", never "+nan".
        spec = make_small_spec()
        sweep = _grid_sweep()
        a = Campaign.create(tmp_path / "a", [sweep], system=spec)
        a.run()
        b = Campaign.create(tmp_path / "b", [sweep], system=spec)
        b.run()
        table = campaign_comparison(
            [("a", a.load()), ("b", b.load())], metric="mean_pue"
        )
        assert "nan" not in table
        assert "-" in table


class TestCampaignCli:
    @pytest.fixture()
    def mini_path(self, tmp_path):
        path = tmp_path / "mini.json"
        dump_system(make_small_spec(), path)
        return path

    def _run(self, capsys, argv):
        rc = cli_main(argv)
        assert rc == 0
        return capsys.readouterr().out

    def test_run_compare_and_resume(self, tmp_path, mini_path, capsys):
        camp = str(tmp_path / "camp")
        grid = "wetbulb_c=12,18,24;seed=0,1,2,3"
        live = self._run(
            capsys,
            [
                "campaign", "run", camp,
                "--system", str(mini_path),
                "--hours", "0.25",
                "--no-cooling",
                "--grid", grid,
            ],
        )
        assert live.count("synthetic/wetbulb_c=") == 12

        # compare reloads the table without re-simulating: the stored
        # directory is not modified by the reload.
        before = (tmp_path / "camp" / "results.jsonl").read_text()
        table = self._run(capsys, ["campaign", "compare", camp])
        assert table.strip() == live.strip()
        assert (tmp_path / "camp" / "results.jsonl").read_text() == before

        # run on an existing directory resumes (and changes nothing).
        again = self._run(
            capsys,
            ["campaign", "run", camp, "--grid", grid, "--no-cooling"],
        )
        assert again.strip() == live.strip()
        assert (tmp_path / "camp" / "results.jsonl").read_text() == before

        resumed = self._run(capsys, ["campaign", "resume", camp])
        assert resumed.strip() == live.strip()

    def test_compare_heatmap_and_two_dirs(self, tmp_path, mini_path, capsys):
        grid = "wetbulb_c=12,18;seed=0,1"
        for name in ("a", "b"):
            self._run(
                capsys,
                [
                    "campaign", "run", str(tmp_path / name),
                    "--system", str(mini_path),
                    "--hours", "0.25",
                    "--no-cooling",
                    "--grid", grid,
                ],
            )
        out = self._run(
            capsys,
            [
                "campaign", "compare",
                str(tmp_path / "a"), str(tmp_path / "b"),
                "--heatmap", "--metric", "energy_mwh",
            ],
        )
        assert "metric: energy_mwh" in out
        assert "Δ b" in out
        assert "wetbulb_c[2] × seed[2]" in out

    def test_lhs_campaign(self, tmp_path, mini_path, capsys):
        out = self._run(
            capsys,
            [
                "campaign", "run", str(tmp_path / "lhs"),
                "--system", str(mini_path),
                "--hours", "0.25",
                "--no-cooling",
                "--lhs", "wetbulb_c=5.0:25",
                "--samples", "4",
                "--seed", "3",
            ],
        )
        assert out.count("synthetic/wetbulb_c=") == 4
