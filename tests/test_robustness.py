"""Robustness and determinism: the properties a production twin needs."""

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.core.engine import RapsEngine
from repro.scenarios import DigitalTwin, SyntheticScenario
from repro.scheduler.job import Job
from repro.scheduler.workloads import jobs_from_dataset, synthetic_workload
from repro.telemetry.synthesis import SyntheticTelemetryGenerator
from tests.conftest import make_small_spec


def fresh_jobs(spec, seed=5, duration=3600.0):
    return synthetic_workload(spec, duration, seed=seed)


class TestDeterminism:
    def test_replay_bit_reproducible(self):
        spec = make_small_spec()
        gen = SyntheticTelemetryGenerator(spec, seed=77)
        day = gen.day(0)

        def run():
            engine = RapsEngine(
                spec, with_cooling=True, honor_recorded_starts=True
            )
            return engine.run(jobs_from_dataset(day), 1800.0)

        a, b = run(), run()
        np.testing.assert_array_equal(a.system_power_w, b.system_power_w)
        np.testing.assert_array_equal(a.cooling["pue"], b.cooling["pue"])
        np.testing.assert_array_equal(a.utilization, b.utilization)

    def test_engine_rerun_after_reset_matches(self):
        spec = make_small_spec()
        engine = RapsEngine(spec, with_cooling=True)
        a = engine.run(fresh_jobs(spec), 900.0)
        # Same engine object, fresh jobs: the FMU auto-resets.
        engine2 = RapsEngine(spec, with_cooling=True)
        b = engine2.run(fresh_jobs(spec), 900.0)
        np.testing.assert_array_equal(a.system_power_w, b.system_power_w)

    def test_synthetic_campaign_order_independent(self):
        spec = make_small_spec()
        g1 = SyntheticTelemetryGenerator(spec, seed=4)
        g2 = SyntheticTelemetryGenerator(spec, seed=4)
        # Generate day 2 after day 0 vs directly.
        _ = g1.day(0)
        a = g1.day(2)
        b = g2.day(2)
        assert len(a.jobs) == len(b.jobs)
        for ja, jb in zip(a.jobs_sorted(), b.jobs_sorted()):
            assert ja.start_time == jb.start_time
            np.testing.assert_array_equal(ja.gpu_util, jb.gpu_util)


class TestFailureInjection:
    def test_down_nodes_reduce_capacity_not_correctness(self):
        spec = make_small_spec()
        down = np.arange(0, 64)  # a quarter of the machine is down
        engine = RapsEngine(spec, with_cooling=False, down_nodes=down)
        jobs = fresh_jobs(spec, seed=9)
        result = engine.run(jobs, 3600.0)
        engine.scheduler.drain_check()
        # Down nodes still draw idle power (they are not powered off in
        # the paper's model), so the floor matches the full system idle.
        full = RapsEngine(spec, with_cooling=False).run([], 300.0)
        assert result.system_power_w.min() == pytest.approx(
            full.system_power_w.min(), rel=1e-9
        )
        # Utilization accounts only for the available pool.
        assert result.utilization.max() <= 1.0

    def test_oversized_job_for_degraded_machine(self):
        spec = make_small_spec()
        engine = RapsEngine(
            spec, with_cooling=False, down_nodes=np.arange(0, 128)
        )
        job = Job(
            job_id=1,
            name="big",
            nodes_required=200,  # fits the machine, not the healthy pool
            wall_time=300.0,
            cpu_util=np.full(20, 0.5),
            gpu_util=np.full(20, 0.5),
            submit_time=0.0,
        )
        result = engine.run([job], 900.0)
        # The job can never start: it stays pending, nothing crashes.
        assert engine.scheduler.num_pending == 1
        assert result.scheduler_stats.started == 0


class TestQueuePressure:
    def test_max_queue_depth_rejects_overflow(self):
        import dataclasses

        spec = make_small_spec()
        spec = dataclasses.replace(
            spec,
            scheduler=dataclasses.replace(spec.scheduler, max_queue_depth=4),
        )
        engine = RapsEngine(spec, with_cooling=False)
        # Saturate: one full-machine job + a burst of pending jobs.
        jobs = [
            Job(
                job_id=i,
                name=f"j{i}",
                nodes_required=256,
                wall_time=3000.0,
                cpu_util=np.full(200, 0.5),
                gpu_util=np.full(200, 0.5),
                submit_time=float(i),
            )
            for i in range(10)
        ]
        result = engine.run(jobs, 600.0)
        stats = result.scheduler_stats
        assert stats.started == 1
        assert stats.rejected > 0
        assert stats.submitted + stats.rejected == 10

    def test_heavy_oversubscription_conserves_jobs(self):
        spec = make_small_spec()
        jobs = fresh_jobs(spec, seed=11, duration=1200.0)
        # Triple the workload density by shrinking submit times.
        for j in jobs:
            j.submit_time /= 3.0
        engine = RapsEngine(spec, with_cooling=False)
        result = engine.run(jobs, 1200.0)
        stats = result.scheduler_stats
        assert (
            stats.submitted
            == stats.completed + engine.scheduler.num_running + engine.scheduler.num_pending
        )


class TestWeatherCorrelation:
    """Paper III-A use case: weather vs component temperatures."""

    def test_hotter_wetbulb_raises_pue_and_blade_supply(self):
        spec = frontier_spec()
        from repro.cooling.plant import CoolingPlant

        heat = np.full(25, 650e3)
        results = {}
        for wb in (2.0, 25.0):
            plant = CoolingPlant(spec.cooling)
            state = plant.warmup(heat, wb, duration_s=5400.0)
            results[wb] = state
        # Warm weather costs PUE (more fan/tower effort) and floats the
        # CTW loop up.
        assert results[25.0].ctw_supply_temp_c > results[2.0].ctw_supply_temp_c
        assert (
            float(np.sum(results[25.0].ct_fan_power_w))
            >= float(np.sum(results[2.0].ct_fan_power_w)) - 1e-6
        )

    def test_gpu_die_temperature_tracks_weather(self):
        from repro.cooling.components.coldplate import default_gpu_coldplate

        plate = default_gpu_coldplate()
        # Blade coolant follows the CDU secondary supply, which floats
        # with weather when the plant saturates; 2 degC of supply shift
        # shows up 1:1 on the die.
        cool = plate.die_temperature(32.0, 460.0, plate.design_flow)
        warm = plate.die_temperature(34.0, 460.0, plate.design_flow)
        assert float(warm) - float(cool) == pytest.approx(2.0)


class TestEnergyAccounting:
    def test_pue_definition_consistent(self):
        spec = make_small_spec()
        result = SyntheticScenario(duration_s=1800.0, seed=8).run(
            DigitalTwin(spec)
        ).result
        pue = result.cooling["pue"]
        aux = result.cooling["aux_power_w"]
        cdu_pumps = result.cooling["cdu_pump_power_w"].sum(axis=1)
        # PUE = (P_system + P_aux_CEP) / P_system with CDU pumps inside
        # P_system (plant.py docstring); verify from recorded series.
        aux_cep = aux - cdu_pumps
        expected = (result.system_power_w + aux_cep) / result.system_power_w
        np.testing.assert_allclose(pue, expected, rtol=1e-9)

    def test_loss_decomposition_sums(self):
        spec = make_small_spec()
        engine = RapsEngine(spec, with_cooling=False)
        result = engine.run(fresh_jobs(spec, seed=13), 1800.0)
        np.testing.assert_allclose(
            result.loss_w, result.sivoc_loss_w + result.rectifier_loss_w
        )

    def test_chain_efficiency_band_through_replay(self):
        spec = frontier_spec()
        gen = SyntheticTelemetryGenerator(spec, seed=21)
        engine = RapsEngine(spec, with_cooling=False, honor_recorded_starts=True)
        result = engine.run(jobs_from_dataset(gen.day(0)), 4 * 3600.0)
        # Table IV implies eta_system ~ 92-94 % across operating points.
        assert 0.915 < result.chain_efficiency.min()
        assert result.chain_efficiency.max() < 0.95
