"""The batched kernel's rows are the CDU bank's one resident copy.

``BatchedPlantKernel.gather`` reads a plant's CDU bank straight into a
batch row and ``write_back`` writes the row straight onto the graph, so
a gather followed by a write-back with no advance must leave every
CDU-bank field bit-equal, with fresh arrays that alias neither the rows
nor each other.  The facility half (primary and tower loops, their
scalar PIDs and staging controllers) lives in the same kernel and must
round-trip the same way, sharing no object with the graph, in both of
its forms (per-lane records below :data:`STACKED_MIN_LANES` lanes,
``(B,)`` arrays from there).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.batch.kernel import (
    STACKED_MIN_LANES,
    BatchedPlantKernel,
    _ScalarFacility,
    _StackedFacility,
)
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


def _facility_fields(plant) -> dict:
    """Every primary/tower field the kernel owns, by graph path."""
    primary, tower = plant.primary, plant.tower
    fields = {
        "primary.pumps.n_running": primary.pumps.n_running,
        "primary.n_ehx": primary.n_ehx,
        "primary.supply.temp_c": primary.supply.temp_c,
        "primary.return_.temp_c": primary.return_.temp_c,
        "primary.pump_speed": primary.pump_speed,
        "primary.total_flow": primary.total_flow,
        "primary.ehx_heat_w": primary.ehx_heat_w,
        "tower.pumps.n_running": tower.pumps.n_running,
        "tower.supply.temp_c": tower.supply.temp_c,
        "tower.return_.temp_c": tower.return_.temp_c,
        "tower.pump_speed": tower.pump_speed,
        "tower.total_flow": tower.total_flow,
        "tower.fan_speed": tower.fan_speed,
        "tower.htws_delay.y": tower.htws_delay.y,
        "tower._prev_htws_c": tower._prev_htws_c,
    }
    for name, pid in _facility_pids(plant).items():
        fields[f"{name}._integral"] = pid._integral
        fields[f"{name}._prev_error"] = pid._prev_error
        fields[f"{name}._has_prev"] = pid._has_prev
        fields[f"{name}.output"] = pid.output
    for name, ctl in _staging(plant).items():
        fields[f"{name}.count"] = ctl.count
        fields[f"{name}._above_s"] = ctl._above_s
        fields[f"{name}._below_s"] = ctl._below_s
    return fields


def _facility_pids(plant) -> dict:
    return {
        "tower.fan_pid": plant.tower.fan_pid,
        "tower.speed_pid": plant.tower.speed_pid,
    }


def _staging(plant) -> dict:
    return {
        "primary.pump_staging": plant.primary.pump_staging,
        "tower.pump_staging": plant.tower.pump_staging,
        "tower.cell_staging": plant.tower.cell_staging,
    }


def _scribble_facility(plant) -> None:
    """Overwrite every kernel-owned primary/tower field on the graph."""
    primary, tower = plant.primary, plant.tower
    primary.pumps.n_running = tower.pumps.n_running = -1
    primary.n_ehx = -1
    for volume in (primary.supply, primary.return_,
                   tower.supply, tower.return_):
        volume.temp_c.fill(np.nan)
    primary.pump_speed = primary.total_flow = np.nan
    primary.ehx_heat_w = np.nan
    tower.pump_speed = tower.total_flow = tower.fan_speed = np.nan
    tower.htws_delay.y = np.nan
    tower._prev_htws_c = None
    for pid in _facility_pids(plant).values():
        for a in (pid._integral, pid._prev_error, pid.output):
            a.fill(np.nan)
        pid._has_prev = not pid._has_prev
    for ctl in _staging(plant).values():
        ctl.count = -1
        ctl._above_s = ctl._below_s = np.nan


def _reachable_ids(root) -> set[int]:
    """Ids of every instance, container and array reachable from
    ``root`` (types and modules excluded)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        stack.extend(
            r for r in gc.get_referents(obj)
            if not isinstance(r, (type, type(gc)))
        )
    return seen


def _assert_same(after: dict, before: dict) -> None:
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(after[name], value, err_msg=name)
        else:
            assert type(after[name]) is type(value), name
            assert after[name] == value, name


def test_gather_then_write_back_round_trips_the_facility():
    cooling = make_small_spec(num_cdus=N_CDUS, racks_per_cdu=1).cooling
    fresh = CoolingPlant(cooling)
    lane = _stepped_plant(cooling)
    # Off the design dp, so the CTWP dwell timer is running.
    lane.tower.pressure_setpoint_pa *= 0.2
    heat = np.linspace(1.5e5, 6.0e5, N_CDUS)
    for _ in range(8):
        lane.step(heat, 21.0)
    before = {
        k: (v.copy() if isinstance(v, np.ndarray) else v)
        for k, v in _facility_fields(lane).items()
    }
    fresh_fields = _facility_fields(fresh)
    assert any(
        not np.array_equal(before[k], fresh_fields[k])
        for k in before if k != "tower._prev_htws_c"
    )
    assert before["tower.pump_staging._below_s"] > 0.0

    kernel = BatchedPlantKernel([fresh, fresh])
    kernel.gather(1, lane)
    _scribble_facility(lane)
    kernel.write_back([fresh, lane])

    after = _facility_fields(lane)
    _assert_same(after, before)
    arrays = [v for v in after.values() if isinstance(v, np.ndarray)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)

    owned = _reachable_ids(kernel)
    graph = [*_facility_pids(lane).values(), *_staging(lane).values(), *arrays]
    for obj in graph:
        assert id(obj) not in owned
    # The graph's controllers are the graph's own: scribbling them again
    # leaves the kernel's copy intact.
    _scribble_facility(lane)
    kernel.write_back([fresh, lane])
    _assert_same(_facility_fields(lane), before)


@pytest.mark.parametrize(
    "lanes, form",
    [(2, _ScalarFacility), (STACKED_MIN_LANES, _StackedFacility)],
    ids=["scalar", "stacked"],
)
def test_facility_round_trips_in_both_forms(lanes, form):
    """A stepped lane and a never-stepped one (``_prev_htws_c`` None,
    PID ``_has_prev`` False) both come back exactly, types included."""
    cooling = make_small_spec(num_cdus=N_CDUS, racks_per_cdu=1).cooling
    fresh = CoolingPlant(cooling)
    never_stepped = _facility_fields(CoolingPlant(cooling))
    assert never_stepped["tower._prev_htws_c"] is None
    assert never_stepped["tower.fan_pid._has_prev"] is False
    lane = _stepped_plant(cooling)
    lane.tower.pressure_setpoint_pa *= 0.2
    heat = np.linspace(1.5e5, 6.0e5, N_CDUS)
    for _ in range(8):
        lane.step(heat, 21.0)
    before = {
        k: (v.copy() if isinstance(v, np.ndarray) else v)
        for k, v in _facility_fields(lane).items()
    }
    assert before["tower.pump_staging._below_s"] > 0.0

    kernel = BatchedPlantKernel([fresh] * lanes)
    assert type(kernel.facility) is form
    kernel.gather(1, lane)
    target = CoolingPlant(cooling)
    _scribble_facility(lane)
    _scribble_facility(target)
    target.tower._prev_htws_c = 1.0
    kernel.write_back([target, lane] + [fresh] * (lanes - 2))

    _assert_same(_facility_fields(lane), before)
    _assert_same(_facility_fields(target), never_stepped)
    owned = _reachable_ids(kernel)
    for obj in (*_facility_pids(lane).values(), *_staging(lane).values()):
        assert id(obj) not in owned
