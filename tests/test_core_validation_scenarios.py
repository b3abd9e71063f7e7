"""Validation metrics, physical twin, replay validation, what-ifs."""

import numpy as np
import pytest

from repro.core.physical import MeasurementNoise, PhysicalTwin
from repro.core.replay import ReplayValidation, replay_dataset
from repro.core.validate import compare_series, percent_error
from repro.exceptions import ScenarioError, ValidationError
from repro.scenarios import DigitalTwin, WhatIfScenario
from repro.telemetry.dataset import TimeSeries
from repro.telemetry.synthesis import SyntheticTelemetryGenerator
from tests.conftest import assert_bitidentical, make_small_spec


class TestMetrics:
    def test_percent_error_matches_table3_rows(self):
        # Table III: idle 7.24 vs 7.4 -> 2.1 %; peak 28.2 vs 27.4 -> 3.1 %.
        assert percent_error(7.24, 7.4) == pytest.approx(2.16, abs=0.05)
        assert percent_error(28.2, 27.4) == pytest.approx(2.92, abs=0.3)

    def test_percent_error_zero_measured(self):
        with pytest.raises(ValidationError):
            percent_error(1.0, 0.0)

    def test_identical_series_zero_error(self):
        ts = TimeSeries(np.arange(10.0), np.sin(np.arange(10.0)))
        comp = compare_series("x", ts, ts)
        assert comp.rmse == pytest.approx(0.0, abs=1e-12)
        assert comp.mae == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_detected(self):
        t = np.arange(20.0)
        a = TimeSeries(t, np.full(20, 5.0))
        b = TimeSeries(t, np.full(20, 4.0))
        comp = compare_series("x", a, b)
        assert comp.rmse == pytest.approx(1.0)
        assert comp.bias == pytest.approx(1.0)
        assert comp.mape_percent == pytest.approx(25.0)

    def test_window_restricts_samples(self):
        t = np.arange(20.0)
        pred = TimeSeries(t, np.zeros(20))
        meas = TimeSeries(t, np.concatenate([np.ones(10), np.zeros(10)]))
        comp = compare_series("x", pred, meas, window=(10.0, 20.0))
        assert comp.rmse == pytest.approx(0.0, abs=1e-12)

    def test_no_overlap_rejected(self):
        a = TimeSeries(np.arange(5.0), np.zeros(5))
        b = TimeSeries(np.arange(100.0, 105.0), np.zeros(5))
        with pytest.raises(ValidationError):
            compare_series("x", a, b)

    def test_multichannel_jointly_scored(self):
        t = np.arange(10.0)
        a = TimeSeries(t, np.zeros((10, 3)))
        b = TimeSeries(t, np.ones((10, 3)))
        comp = compare_series("x", a, b)
        assert comp.n_samples == 30
        assert comp.mae == pytest.approx(1.0)


@pytest.fixture(scope="module")
def small_measured():
    """Physical-twin telemetry over a 2-hour mini-system day."""
    spec = make_small_spec()
    gen = SyntheticTelemetryGenerator(spec, seed=13)
    from repro.telemetry.synthesis import WorkloadDayParams

    params = WorkloadDayParams(
        mean_arrival_s=120.0, mean_nodes_per_job=40.0, mean_runtime_s=1500.0
    )
    day = gen.day(0, params=params)
    twin = PhysicalTwin(spec, seed=3, with_cooling=True)
    measured, _ = twin.measure(day, 7200.0)
    return spec, measured


class TestPhysicalTwin:
    def test_measured_series_present(self, small_measured):
        _, measured = small_measured
        for name in (
            "measured_power",
            "rack_power",
            "cdu_htw_flow",
            "pue",
            "htw_supply_pressure",
        ):
            assert name in measured

    def test_noise_applied(self, small_measured):
        _, measured = small_measured
        power = measured["measured_power"].values
        # White noise: consecutive idle samples differ.
        assert np.std(np.diff(power[:10])) > 0.0

    def test_jobs_carried_through(self, small_measured):
        _, measured = small_measured
        assert len(measured.jobs) > 0

    def test_empty_workload_rejected(self):
        from repro.telemetry.dataset import TelemetryDataset

        spec = make_small_spec()
        twin = PhysicalTwin(spec, with_cooling=False)
        with pytest.raises(Exception):
            twin.measure(TelemetryDataset(name="empty"), 600.0)

    def test_perturbed_spec_differs(self):
        spec = make_small_spec()
        twin = PhysicalTwin(spec, seed=1)
        assert twin.true_spec != spec


class TestReplayValidation:
    def test_validation_pipeline(self, small_measured):
        spec, measured = small_measured
        val = ReplayValidation(spec, measured, 7200.0).run()
        assert "system_power" in val.comparisons
        assert "pue" in val.comparisons
        # Digital twin should track the physical twin within a few percent
        # (paper: power within ~2-5 %, PUE within 1.4 %).
        assert val.power_percent_error() < 5.0
        assert val.comparisons["pue"].mape_percent < 1.4

    def test_summary_renders(self, small_measured):
        spec, measured = small_measured
        val = ReplayValidation(spec, measured, 7200.0).run()
        text = val.summary()
        assert "RMSE" in text and "MAE" in text

    def test_summary_requires_run(self, small_measured):
        spec, measured = small_measured
        with pytest.raises(ValidationError):
            ReplayValidation(spec, measured, 7200.0).summary()


class TestWhatIfs:
    @pytest.fixture(scope="class")
    def workload(self):
        spec = make_small_spec()
        gen = SyntheticTelemetryGenerator(spec, seed=21)
        from repro.telemetry.synthesis import WorkloadDayParams

        params = WorkloadDayParams(
            mean_arrival_s=100.0, mean_nodes_per_job=30.0, mean_runtime_s=1200.0
        )
        return spec, gen.day(0, params=params)

    def test_direct_dc_saves(self, workload):
        spec, day = workload
        comp = compare_whatif(spec, day, 3600.0, "direct-dc")
        assert comp.modified_efficiency > comp.baseline_efficiency
        assert comp.annual_savings_usd > 0
        assert comp.co2_reduction_percent > 0
        # Paper: ~93.3 % -> ~97.3 %.
        assert comp.modified_efficiency == pytest.approx(0.973, abs=0.01)

    def test_smart_rectifier_small_positive(self, workload):
        spec, day = workload
        comp = compare_whatif(spec, day, 3600.0, "smart-rectifier")
        assert comp.modified_efficiency >= comp.baseline_efficiency
        assert comp.efficiency_gain_percent < 2.0

    def test_baseline_result_reused(self, workload):
        # The outcome's baseline is the plain replay of the same day.
        spec, day = workload
        base = replay_dataset(spec, day, 3600.0, with_cooling=False)
        outcome = WhatIfScenario(
            modification="direct-dc", duration_s=3600.0
        ).run(DigitalTwin(spec), dataset=day)
        assert_bitidentical(outcome.baseline, base, label="baseline")
        assert outcome.comparison.baseline_mean_power_mw == pytest.approx(
            base.mean_power_w / 1e6
        )

    def test_unknown_scenario_rejected(self, workload):
        with pytest.raises(ScenarioError, match="unknown"):
            WhatIfScenario(modification="fusion-power", duration_s=600.0)

    def test_report_renders(self, workload):
        spec, day = workload
        comp = compare_whatif(spec, day, 1800.0, "direct-dc")
        text = comp.report()
        assert "annual savings" in text
        assert "CO2" in text


def compare_whatif(spec, day, duration_s, modification):
    """Replay ``day`` under the baseline and a modified chain; the
    comparison."""
    scenario = WhatIfScenario(
        modification=modification, duration_s=duration_s
    )
    return scenario.run(DigitalTwin(spec), dataset=day).comparison
