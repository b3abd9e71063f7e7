"""Running a twin through scenarios, and run statistics (paper III-B5,
Table IV)."""

import numpy as np
import pytest

from repro.core.engine import Lane
from repro.core.stats import aggregate_daily, format_table4
from repro.exceptions import ScenarioError, SimulationError
from repro.scenarios import (
    DigitalTwin,
    ReplayScenario,
    SyntheticScenario,
    VerificationScenario,
)
from repro.scheduler.engine import SchedulerEngine
from tests.conftest import make_small_spec


def run_synthetic(spec, duration_s, *, seed=0, with_cooling=False):
    """One synthetic run on ``spec``; its scenario outcome."""
    scenario = SyntheticScenario(
        duration_s=duration_s, seed=seed, with_cooling=with_cooling
    )
    return scenario.run(DigitalTwin(spec))


class TestSimulationFacade:
    """What the removed ``Simulation`` facade offered, through a
    :class:`DigitalTwin` and scenarios."""

    def test_builtin_by_name(self):
        assert DigitalTwin("frontier").spec.name == "frontier"

    def test_spec_object_accepted(self):
        assert DigitalTwin(make_small_spec()).spec.name == "mini"

    def test_json_path_accepted(self, tmp_path):
        from repro.config.loader import dump_system

        path = tmp_path / "mini.json"
        dump_system(make_small_spec(), path)
        assert DigitalTwin(path).spec.name == "mini"

    def test_statistics_requires_run(self):
        # Statistics come from a run's steps; a zero-step result is no run.
        lane = Lane(SchedulerEngine(16), [], 60.0, num_cdus=1)
        with pytest.raises(SimulationError, match="run produced no steps"):
            lane.result(0)

    def test_verification_points(self):
        twin = DigitalTwin(make_small_spec())

        def mean_power(point):
            return VerificationScenario(
                point=point, duration_s=300.0, with_cooling=False
            ).run(twin).result.mean_power_w

        assert mean_power("idle") < mean_power("hpl") < mean_power("peak")

    def test_unknown_verification_point(self):
        with pytest.raises(ScenarioError, match="unknown"):
            VerificationScenario(point="linpack")

    def test_synthetic_run_and_stats(self):
        outcome = run_synthetic(make_small_spec(), 3600.0, seed=11)
        stats = outcome.statistics
        assert stats.mean_power_mw == pytest.approx(
            outcome.result.mean_power_w / 1e6
        )
        assert stats.total_energy_mwh > 0
        assert stats.co2_tons > 0
        assert stats.energy_cost_usd > 0

    def test_mean_pue_requires_cooling(self):
        outcome = run_synthetic(make_small_spec(), 900.0, seed=1)
        with pytest.raises(SimulationError, match="cooling"):
            outcome.result.cooling_series("pue")

    def test_replay_through_facade(self):
        from repro.telemetry.synthesis import SyntheticTelemetryGenerator

        spec = make_small_spec()
        ds = SyntheticTelemetryGenerator(spec, seed=5).day(0)
        outcome = ReplayScenario(duration_s=3600.0, with_cooling=False).run(
            DigitalTwin(spec), dataset=ds
        )
        assert outcome.result.scheduler_stats.started > 0


class TestStatistics:
    def make_stats(self, seed=0):
        return run_synthetic(make_small_spec(), 3600.0, seed=seed).statistics

    def test_report_renders(self):
        report = self.make_stats().report()
        for token in ("jobs completed", "average power", "CO2", "cost"):
            assert token in report

    def test_loss_percent_definition(self):
        s = self.make_stats()
        # Loss % = loss MW / avg power MW (Table IV convention).
        assert s.loss_percent == pytest.approx(
            s.mean_loss_mw / s.mean_power_mw * 100.0
        )

    def test_throughput_definition(self):
        s = self.make_stats()
        assert s.throughput_jobs_per_hour == pytest.approx(s.jobs_completed / 1.0)


class TestTable4Aggregation:
    def test_aggregate_rows_in_paper_order(self):
        days = [self_make(i) for i in range(3)]
        rows = aggregate_daily(days)
        labels = [r.parameter for r in rows]
        assert labels[0].startswith("Avg Arrival Rate")
        assert labels[-1].startswith("Carbon")
        assert len(rows) == 10

    def test_minmax_envelope(self):
        days = [self_make(i) for i in range(4)]
        rows = aggregate_daily(days)
        powers = [d.mean_power_mw for d in days]
        power_row = next(r for r in rows if r.parameter == "Avg Power (MW)")
        assert power_row.minimum == pytest.approx(min(powers))
        assert power_row.maximum == pytest.approx(max(powers))
        assert power_row.average == pytest.approx(np.mean(powers))

    def test_format_table4(self):
        rows = aggregate_daily([self_make(0), self_make(1)])
        text = format_table4(rows)
        assert "Parameter" in text and "Loss (%)" in text

    def test_empty_aggregation_rejected(self):
        with pytest.raises(SimulationError):
            aggregate_daily([])


def self_make(seed):
    return run_synthetic(make_small_spec(), 1800.0, seed=seed).statistics
