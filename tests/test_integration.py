"""Integration tests: full pipelines across modules.

These exercise the paths the paper's evaluation uses end-to-end:
verification points through the engine, replay + validation, what-if
studies, generalization to other machines, and the FMU coupling.
"""

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.config.loader import load_builtin_system
from repro.core.engine import RapsEngine
from repro.core.physical import PhysicalTwin
from repro.core.replay import ReplayValidation
from repro.core.stats import aggregate_daily, compute_statistics
from repro.scenarios import (
    DigitalTwin,
    SyntheticScenario,
    VerificationScenario,
)
from repro.scheduler.workloads import benchmark_sequence, jobs_from_dataset
from repro.telemetry.synthesis import (
    SyntheticTelemetryGenerator,
    WorkloadDayParams,
)
from tests.conftest import make_small_spec


class TestFrontierVerification:
    """Table III through the full engine, with the cooling FMU coupled."""

    def test_idle_with_cooling(self):
        result = VerificationScenario(point="idle", duration_s=900.0).run(
            DigitalTwin("frontier")
        ).result
        assert result.mean_power_w / 1e6 == pytest.approx(7.24, abs=0.05)
        pue = float(np.mean(result.cooling["pue"]))
        assert 1.0 < pue < 1.12

    def test_hpl_power_and_heat(self):
        result = VerificationScenario(
            point="hpl", duration_s=900.0, with_cooling=False
        ).run(DigitalTwin("frontier")).result
        assert result.mean_power_w / 1e6 == pytest.approx(22.3, abs=0.15)
        # Heat to the CDUs is cooling_efficiency x rack power.
        heat = float(np.sum(result.cdu_heat_w[-1]))
        racks = float(np.sum(result.cdu_power_w[-1]))
        assert heat == pytest.approx(0.945 * racks, rel=1e-9)


@pytest.mark.slow
class TestBenchmarkSequence:
    """Fig. 8: HPL then OpenMxP with the thermal response visible (a
    benchmark-style full-Frontier transient run, skipped in tier-1)."""

    def test_power_and_temperature_transients(self):
        spec = frontier_spec()
        engine = RapsEngine(spec, with_cooling=True, honor_recorded_starts=True)
        jobs = benchmark_sequence(spec)
        result = engine.run(jobs, 13500.0)
        p = result.system_power_w / 1e6
        # Idle at the start, HPL plateau in the middle, gap, then OpenMxP.
        assert p[:100].mean() == pytest.approx(7.24, abs=0.1)
        hpl_window = (result.times_s > 3000) & (result.times_s < 6000)
        assert p[hpl_window].mean() > 20.0
        # Primary return temperature rises during the benchmark runs.
        t_ret = result.cooling["htw_return_temp_c"]
        assert t_ret[hpl_window].max() > t_ret[:100].mean() + 1.0
        # OpenMxP drives GPUs harder than HPL.
        mxp_window = (result.times_s > 10000) & (result.times_s < 12000)
        assert p[mxp_window].mean() > p[hpl_window].mean()


class TestReplayValidationPipeline:
    def test_small_system_replay_tracks_physical_twin(self):
        spec = make_small_spec()
        gen = SyntheticTelemetryGenerator(spec, seed=31)
        params = WorkloadDayParams(
            mean_arrival_s=150.0,
            mean_nodes_per_job=50.0,
            mean_runtime_s=1800.0,
        )
        day = gen.day(0, params=params)
        twin = PhysicalTwin(spec, seed=5, with_cooling=False)
        measured, _ = twin.measure(day, 5400.0)
        val = ReplayValidation(spec, measured, 5400.0, with_cooling=False).run()
        assert val.power_percent_error() < 6.0


class TestMultiDayStatistics:
    def test_daily_aggregation_pipeline(self):
        spec = make_small_spec()
        gen = SyntheticTelemetryGenerator(spec, seed=17)
        days = []
        for k in range(3):
            ds = gen.day(k)
            engine = RapsEngine(
                spec, with_cooling=False, honor_recorded_starts=True
            )
            result = engine.run(jobs_from_dataset(ds), 7200.0)
            days.append(compute_statistics(result, spec.economics))
        rows = aggregate_daily(days)
        table = {r.parameter: r for r in rows}
        assert table["Avg Power (MW)"].minimum <= table["Avg Power (MW)"].average
        assert table["Loss (%)"].average > 0


class TestGeneralization:
    """Paper Section V: other machines through the same stack."""

    def test_marconi100_end_to_end(self):
        result = SyntheticScenario(duration_s=1800.0, seed=2).run(
            DigitalTwin("marconi100")
        ).result
        assert result.mean_power_w > 0
        assert "pue" in result.cooling

    def test_setonix_multi_partition_end_to_end(self):
        spec = load_builtin_system("setonix")
        result = VerificationScenario(
            point="peak", duration_s=300.0, seed=3, with_cooling=False
        ).run(DigitalTwin(spec)).result
        # Peak of 1592 CPU + 192 GPU nodes: sanity band.
        assert 1.0 < result.mean_power_w / 1e6 < 5.0

    def test_custom_json_machine(self, tmp_path):
        from repro.config.loader import dump_system

        spec = make_small_spec(total_nodes=512, num_cdus=4)
        path = tmp_path / "custom.json"
        dump_system(spec, path)
        result = VerificationScenario(
            point="idle", duration_s=300.0, seed=1, with_cooling=False
        ).run(DigitalTwin(path)).result
        assert result.mean_power_w > 0


class TestFmuSwapPath:
    def test_engine_talks_fmi_protocol(self):
        """The engine must only use the FMI-style surface of the FMU."""
        spec = make_small_spec()
        engine = RapsEngine(spec, with_cooling=True)
        result = engine.run([], 300.0)
        fmu = engine.fmu
        assert fmu is not None
        # Clock advanced by exactly the coupling steps.
        assert fmu.time == pytest.approx(300.0)
        assert len(result.cooling["pue"]) == 20
