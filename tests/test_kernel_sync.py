"""The batched kernel's rows are the CDU bank's one resident copy.

``BatchedPlantKernel.gather`` reads a plant's CDU bank straight into a
batch row and ``write_back`` writes the row straight onto the graph, so
a gather followed by a write-back with no advance must leave every
CDU-bank field bit-equal, with fresh arrays that alias neither the rows
nor each other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.kernel import BatchedPlantKernel
from repro.cooling.plant import CoolingPlant
from repro.exceptions import CoolingModelError
from tests.conftest import make_small_spec

N_CDUS = 4


def _row_fields(cdus) -> dict[str, np.ndarray]:
    """Every per-CDU array the batch rows own, by graph path."""
    return {
        "secondary_flow": cdus.secondary_flow,
        "primary_flow": cdus.primary_flow,
        "hot.temp_c": cdus.hot.temp_c,
        "cold.temp_c": cdus.cold.temp_c,
        "hx_heat_w": cdus.hx_heat_w,
        "primary_return_c": cdus.primary_return_c,
        "pump_speed": cdus.pump_speed,
        "valve_opening": cdus.valve_opening,
        "pump_pid.output": cdus.pump_pid.output,
        "valve_pid.output": cdus.valve_pid.output,
        "pump_pid._integral": cdus.pump_pid._integral,
        "valve_pid._integral": cdus.valve_pid._integral,
        "pump_pid._prev_error": cdus.pump_pid._prev_error,
        "valve_pid._prev_error": cdus.valve_pid._prev_error,
    }


def _stepped_plant(cooling) -> CoolingPlant:
    """A plant stepped off steady state with a distinct value per CDU in
    every row field."""
    plant = CoolingPlant(cooling)
    for i in range(1, N_CDUS):
        plant.cdus.set_blockage(i, 1.0 + 0.5 * i)
    heat = np.linspace(1.5e5, 6.0e5, N_CDUS)
    for _ in range(6):
        plant.step(heat, 17.0)
    return plant


def test_gather_then_write_back_round_trips_every_cdu_field():
    cooling = make_small_spec(num_cdus=N_CDUS, racks_per_cdu=1).cooling
    fresh = CoolingPlant(cooling)
    lane = _stepped_plant(cooling)
    before = {k: v.copy() for k, v in _row_fields(lane.cdus).items()}
    for name, values in before.items():
        assert len(np.unique(values)) == N_CDUS, name
    blockage = lane.cdus.blockage_factor.copy()

    kernel = BatchedPlantKernel([fresh, fresh])
    kernel.gather(1, lane)
    # Scribble over the graph: write_back must restore every field.
    for values in _row_fields(lane.cdus).values():
        values.fill(np.nan)
    kernel.write_back([fresh, lane])

    after = _row_fields(lane.cdus)
    for name, values in before.items():
        np.testing.assert_array_equal(after[name], values, err_msg=name)
    np.testing.assert_array_equal(lane.cdus.blockage_factor, blockage)
    arrays = list(after.values())
    rows = (kernel.out50, kernel.integ50, kernel.hot_t, kernel.pri_flow)
    for i, a in enumerate(arrays):
        for row in rows:
            assert not np.shares_memory(a, row)
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    assert lane.cdus.pump_pid._has_prev is True
    assert lane.cdus.valve_pid._has_prev is True


def test_pid_has_prev_flags_follow_the_row():
    """A never-stepped lane reads ``_has_prev`` False before one advance
    and True after, as plain Python bools."""
    cooling = make_small_spec(num_cdus=N_CDUS, racks_per_cdu=1).cooling
    plants = [CoolingPlant(cooling), CoolingPlant(cooling)]
    kernel = BatchedPlantKernel(plants)
    kernel.write_back(plants)
    for plant in plants:
        assert plant.cdus.pump_pid._has_prev is False
        assert plant.cdus.valve_pid._has_prev is False
    heat = [np.full(N_CDUS, 3e5)] * 2
    kernel.advance(heat, [15.0, 15.0], 3.0, 1)
    kernel.write_back(plants)
    for plant in plants:
        assert plant.cdus.pump_pid._has_prev is True
        assert plant.cdus.valve_pid._has_prev is True


def test_negative_header_dp_fails_before_any_row_write():
    cooling = make_small_spec(num_cdus=N_CDUS, racks_per_cdu=1).cooling
    kernel = BatchedPlantKernel([CoolingPlant(cooling)] * 2)
    rows = (kernel.sp50.copy(), kernel.hot_t.copy(), kernel.dp_term.copy())
    lane = _stepped_plant(cooling)
    lane.cdus.supply_setpoint_c += 2.0
    lane.primary_header_dp_pa = -1.0
    with pytest.raises(CoolingModelError, match="header dp"):
        kernel.gather(1, lane)
    now = (kernel.sp50, kernel.hot_t, kernel.dp_term)
    for before, after in zip(rows, now):
        np.testing.assert_array_equal(after, before)
