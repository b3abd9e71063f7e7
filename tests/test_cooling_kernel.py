"""Fused-kernel equivalence: the fused backend against the reference oracle.

The fused plant backend (the one-lane
:class:`~repro.batch.kernel.BatchedPlantKernel` behind
``CoolingPlant(backend="fused")``) claims bit-identity with the
reference object graph.  These tests hold it to
that claim at every level: per-substep state agreement, full-output
agreement across the Fig. 7/8 scenario set (synthetic, benchmark
sequence, variable wet-bulb replay), the CDU-blockage what-if, and
:class:`~repro.cooling.plant.PlantSnapshot` interchange between the
backends.  The acceptance tolerance is 1e-9 relative; the assertions
below are mostly *exact* because the kernel mirrors the reference
arithmetic operation for operation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.cooling.plant import BACKENDS, CoolingPlant
from repro.exceptions import CoolingModelError
from repro.scenarios import DigitalTwin, SyntheticScenario
from repro.scenarios.library import BenchmarkSequenceScenario, ReplayScenario
from repro.telemetry.dataset import TimeSeries
from tests.conftest import assert_bitidentical, make_small_spec



def plant_state_arrays(plant: CoolingPlant) -> dict[str, np.ndarray]:
    """Every mutable array/scalar of the plant's transient state."""
    cdus, primary, tower = plant.cdus, plant.primary, plant.tower
    return {
        "hot": cdus.hot.temp_c,
        "cold": cdus.cold.temp_c,
        "sec_flow": cdus.secondary_flow,
        "pri_flow": cdus.primary_flow,
        "hx_heat": cdus.hx_heat_w,
        "pri_return": cdus.primary_return_c,
        "pump_speed": cdus.pump_speed,
        "valve_opening": cdus.valve_opening,
        "pump_integral": cdus.pump_pid._integral,
        "valve_integral": cdus.valve_pid._integral,
        "p_supply": primary.supply.temp_c,
        "p_return": primary.return_.temp_c,
        "p_speed": np.asarray(primary.pump_speed),
        "p_flow": np.asarray(primary.total_flow),
        "p_n_ehx": np.asarray(primary.n_ehx),
        "p_n_running": np.asarray(primary.pumps.n_running),
        "t_supply": tower.supply.temp_c,
        "t_return": tower.return_.temp_c,
        "t_speed": np.asarray(tower.pump_speed),
        "t_flow": np.asarray(tower.total_flow),
        "t_fan": np.asarray(tower.fan_speed),
        "t_cells": np.asarray(tower.cell_staging.count),
        "delay_y": np.asarray(tower.htws_delay.y),
    }


def assert_plants_equal(ref: CoolingPlant, fused: CoolingPlant) -> None:
    a, b = plant_state_arrays(ref), plant_state_arrays(fused)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


class TestBackendKnob:
    def test_default_is_fused(self):
        plant = CoolingPlant(frontier_spec().cooling)
        assert plant.backend == "fused"
        assert plant._kernel is not None

    def test_reference_has_no_kernel(self):
        plant = CoolingPlant(frontier_spec().cooling, backend="reference")
        assert plant._kernel is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(CoolingModelError, match="backend"):
            CoolingPlant(frontier_spec().cooling, backend="modelica")

    def test_backends_tuple(self):
        assert BACKENDS == ("fused", "reference")


class TestPerSubstepEquivalence:
    def test_single_substep_trajectory_bit_identical(self):
        """Step both backends one *substep* at a time (dt == substep)."""
        spec = frontier_spec().cooling
        ref = CoolingPlant(spec, substep_s=3.0, backend="reference")
        fused = CoolingPlant(spec, substep_s=3.0, backend="fused")
        rng = np.random.default_rng(11)
        for k in range(300):
            heat = rng.uniform(1e5, 1.0e6, spec.num_cdus)
            wb = 10.0 + 12.0 * np.sin(k / 25.0)
            s_ref = ref.step(heat, wb, dt=3.0)
            s_fused = fused.step(heat, wb, dt=3.0)
            np.testing.assert_array_equal(
                s_ref.as_output_vector(), s_fused.as_output_vector()
            )
        assert_plants_equal(ref, fused)

    def test_macro_step_trajectory_bit_identical(self):
        spec = frontier_spec().cooling
        ref = CoolingPlant(spec, backend="reference")
        fused = CoolingPlant(spec, backend="fused")
        rng = np.random.default_rng(5)
        for k in range(240):
            heat = rng.uniform(2e5, 9e5, spec.num_cdus)
            wb = 5.0 + 15.0 * np.sin(k / 40.0)
            s_ref = ref.step(heat, wb)
            s_fused = fused.step(heat, wb)
            np.testing.assert_array_equal(
                s_ref.as_output_vector(), s_fused.as_output_vector()
            )
        assert_plants_equal(ref, fused)

    def test_blockage_whatif_bit_identical(self):
        """The biological-growth blockage what-if (paper III-A)."""
        spec = frontier_spec().cooling
        ref = CoolingPlant(spec, backend="reference")
        fused = CoolingPlant(spec, backend="fused")
        heat = np.full(spec.num_cdus, 540e3)
        for plant in (ref, fused):
            plant.warmup(heat, 15.0, duration_s=900.0)
            plant.cdus.set_blockage(3, severity=4.0)
        for _ in range(120):
            s_ref = ref.step(heat, 15.0)
            s_fused = fused.step(heat, 15.0)
            np.testing.assert_array_equal(
                s_ref.as_output_vector(), s_fused.as_output_vector()
            )
        # The blockage visibly starves CDU 3 on both backends.
        assert s_fused.cdu_secondary_flow_m3s[3] < (
            0.8 * s_fused.cdu_secondary_flow_m3s[4]
        )

    def test_setpoint_retuning_reaches_fused_loop(self):
        """Runtime setpoint mutation must steer the fused controls too."""
        spec = frontier_spec().cooling
        ref = CoolingPlant(spec, backend="reference")
        fused = CoolingPlant(spec, backend="fused")
        heat = np.full(spec.num_cdus, 540e3)
        for plant in (ref, fused):
            plant.warmup(heat, 15.0, duration_s=900.0)
            plant.primary.supply_setpoint_c += 2.0
            plant.cdus.supply_setpoint_c -= 1.0
        for _ in range(120):
            s_ref = ref.step(heat, 15.0)
            s_fused = fused.step(heat, 15.0)
            np.testing.assert_array_equal(
                s_ref.as_output_vector(), s_fused.as_output_vector()
            )


class TestSnapshotInterchange:
    def test_reference_snapshot_restores_into_fused_and_back(self):
        spec = frontier_spec().cooling
        ref = CoolingPlant(spec, backend="reference")
        heat = np.full(spec.num_cdus, 600e3)
        ref.warmup(heat, 12.0, duration_s=900.0)
        capsule = ref.snapshot()

        fused = CoolingPlant(spec, backend="fused")
        fused.restore(capsule)
        assert_plants_equal(ref, fused)

        # Continue both; the fused continuation must match the oracle.
        for _ in range(80):
            s_ref = ref.step(heat, 12.0)
            s_fused = fused.step(heat, 12.0)
            np.testing.assert_array_equal(
                s_ref.as_output_vector(), s_fused.as_output_vector()
            )

        # Round-trip: snapshot the fused plant back into a reference one.
        back = CoolingPlant(spec, backend="reference")
        back.restore(fused.snapshot())
        assert_plants_equal(back, fused)
        s_back = back.step(heat, 12.0)
        s_fused = fused.step(heat, 12.0)
        np.testing.assert_array_equal(
            s_back.as_output_vector(), s_fused.as_output_vector()
        )

    def test_snapshot_capsule_isolated_from_fused_stepping(self):
        spec = frontier_spec().cooling
        fused = CoolingPlant(spec, backend="fused")
        heat = np.full(spec.num_cdus, 500e3)
        fused.warmup(heat, 15.0, duration_s=600.0)
        capsule = fused.snapshot()
        frozen = capsule.cdus.hot.temp_c.copy()
        fused.step(heat * 1.8, 15.0)
        np.testing.assert_array_equal(capsule.cdus.hot.temp_c, frozen)


def _run_cooling(twin, scenario, **kwargs):
    return scenario.run(twin, **kwargs).result.cooling


class TestScenarioSetEquivalence:
    """Fig. 7/8-flavored engine runs: fused vs reference, all recorded
    cooling outputs within the 1e-9 acceptance tolerance (asserted
    exactly, which is stronger)."""

    @pytest.fixture(scope="class")
    def twins(self):
        spec = make_small_spec()
        return (
            DigitalTwin(spec, cooling_backend="fused"),
            DigitalTwin(spec, cooling_backend="reference"),
        )

    def _assert_equivalent(self, cooling_fused, cooling_ref):
        # Exact equality (tests/conftest.py) is stronger than the RTOL
        # acceptance bound, so the tolerance check is subsumed.
        assert_bitidentical(
            cooling_fused, cooling_ref, label="fused vs reference"
        )

    def test_synthetic_fig7(self, twins):
        fused, ref = twins
        scenario = SyntheticScenario(duration_s=1800.0, seed=2)
        self._assert_equivalent(
            _run_cooling(fused, scenario), _run_cooling(ref, scenario)
        )

    def test_benchmark_sequence_fig8(self, twins):
        fused, ref = twins
        scenario = BenchmarkSequenceScenario(duration_s=3000.0, node_count=192)
        self._assert_equivalent(
            _run_cooling(fused, scenario), _run_cooling(ref, scenario)
        )

    def test_variable_wetbulb_replay(self, twins):
        fused, ref = twins
        scenario = SyntheticScenario(duration_s=1800.0, seed=4)
        wetbulb = TimeSeries(
            np.arange(0.0, 3600.0, 300.0),
            12.0 + 8.0 * np.sin(np.arange(12) / 3.0),
            "C",
        )
        self._assert_equivalent(
            _run_cooling(fused, scenario, wetbulb=wetbulb),
            _run_cooling(ref, scenario, wetbulb=wetbulb),
        )


class TestFmuBackend:
    def test_fmu_threads_backend(self):
        from repro.cooling.fmu import CoolingFMU

        spec = frontier_spec().cooling
        fmu = CoolingFMU(spec, backend="reference")
        assert fmu.backend == "reference"
        assert fmu._plant.backend == "reference"
        fmu.reset()
        assert fmu._plant.backend == "reference"

    def test_fmu_state_interchange_across_backends(self):
        """A warmed reference FMU state seeds a fused FMU bit-exactly."""
        from repro.cooling.fmu import CoolingFMU

        spec = make_small_spec().cooling
        heat = np.full(spec.num_cdus, 400e3)

        ref = CoolingFMU(spec, backend="reference")
        ref.setup_experiment()
        ref.set_cdu_heat(heat)
        ref.set_wetbulb(15.0)
        for _ in range(60):
            ref.do_step(ref.time)
        capsule = ref.get_fmu_state()

        fused = CoolingFMU(spec, backend="fused")
        fused.set_fmu_state(capsule)
        for _ in range(40):
            ref.do_step(ref.time)
            fused.do_step(fused.time)
            np.testing.assert_array_equal(
                ref.get_outputs(), fused.get_outputs()
            )
