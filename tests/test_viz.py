"""Visual analytics: scene graph, heat maps, dashboard, exports."""

import json

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.config.loader import load_builtin_system
from repro.exceptions import ExaDigiTError
from repro.scenarios import DigitalTwin, SyntheticScenario
from repro.viz.dashboard import render_dashboard, sparkline
from repro.viz.export import export_result, result_to_csv, result_to_json
from repro.viz.heatmap import cdu_heatmap, rack_heatmap, render_grid
from repro.viz.scene import build_scene
from tests.conftest import make_small_spec


@pytest.fixture(scope="module")
def frontier_scene():
    return build_scene(frontier_spec())


@pytest.fixture(scope="module")
def small_result():
    scenario = SyntheticScenario(duration_s=1800.0, seed=2)
    return scenario.run(DigitalTwin(make_small_spec())).result


class TestScene:
    def test_asset_counts_match_spec(self, frontier_scene):
        assert frontier_scene.count("rack") == 74
        assert frontier_scene.count("cdu") == 25
        assert frontier_scene.count("cooling_tower") == 5
        assert frontier_scene.count("pump") == 8  # 4 HTWP + 4 CTWP
        assert frontier_scene.count("heat_exchanger") == 5

    def test_rack_metadata_maps_cdu(self, frontier_scene):
        rack0 = frontier_scene.find("rack-000")
        assert rack0.metadata["cdu"] == 0
        rack73 = frontier_scene.find("rack-073")
        assert rack73.metadata["cdu"] == 24

    def test_find_missing_raises(self, frontier_scene):
        with pytest.raises(ExaDigiTError):
            frontier_scene.find("rack-999")

    def test_bounding_box_positive(self, frontier_scene):
        w, d, h = frontier_scene.bounding_box()
        assert w > 0 and d > 0 and h > 0

    def test_json_roundtrip_structure(self, frontier_scene):
        doc = json.loads(frontier_scene.to_json())
        assert doc["type"] == "datacenter"
        assert any(c["name"] == "compute-hall" for c in doc["children"])

    def test_multi_partition_scene(self):
        scene = build_scene(load_builtin_system("setonix"))
        assert scene.count("rack") == 15
        partitions = {
            n.metadata.get("partition")
            for n in scene.root.walk()
            if n.asset_type == "rack"
        }
        assert partitions == {"setonix-cpu", "setonix-gpu"}


class TestHeatmap:
    def test_render_grid_rows(self):
        text = render_grid(np.arange(32.0), columns=16)
        rows = [l for l in text.splitlines() if "|" in l]
        assert len(rows) == 2

    def test_extremes_use_ramp_ends(self):
        text = render_grid(np.array([0.0, 1.0]), columns=2, labels=False)
        assert " " in text and "@" in text

    def test_rack_heatmap_validates_shape(self):
        spec = frontier_spec()
        with pytest.raises(ExaDigiTError):
            rack_heatmap(spec, np.zeros(10))
        out = rack_heatmap(spec, np.linspace(0, 1, 74))
        assert "scale:" in out

    def test_cdu_heatmap(self):
        spec = frontier_spec()
        out = cdu_heatmap(spec, np.linspace(200e3, 400e3, 25))
        assert "|" in out

    def test_empty_rejected(self):
        with pytest.raises(ExaDigiTError):
            render_grid(np.array([]))


class TestDashboard:
    def test_sparkline_width(self):
        line = sparkline(np.sin(np.linspace(0, 10, 500)), width=40)
        assert len(line) == 40

    def test_sparkline_flat_series(self):
        line = sparkline(np.full(100, 5.0), width=20)
        assert len(set(line)) == 1

    def test_dashboard_includes_cooling_panels(self, small_result):
        text = render_dashboard(small_result)
        for token in ("power", "efficiency", "utilization", "pue"):
            assert token in text

    def test_sparkline_empty_rejected(self):
        with pytest.raises(ExaDigiTError):
            sparkline(np.array([]))


class TestExport:
    def test_json_payload(self, small_result):
        doc = json.loads(result_to_json(small_result))
        assert doc["summary"]["mean_power_w"] > 0
        n = len(doc["series"]["times_s"])
        assert len(doc["series"]["system_power_w"]) == n
        assert "pue" in doc["series"]

    def test_csv_columns_aligned(self, small_result):
        text = result_to_csv(small_result)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert "system_power_w" in header
        assert len(lines) == small_result.times_s.size + 1
        assert all(len(l.split(",")) == len(header) for l in lines[1:])

    def test_export_writes_files(self, small_result, tmp_path):
        p1 = export_result(small_result, tmp_path / "run", fmt="json")
        p2 = export_result(small_result, tmp_path / "run", fmt="csv")
        assert p1.exists() and p2.exists()

    def test_unknown_format_rejected(self, small_result, tmp_path):
        with pytest.raises(ExaDigiTError):
            export_result(small_result, tmp_path / "x", fmt="parquet")
