"""The stacked facility form: a wide kernel's lanes against the reference.

A kernel of at least :data:`~repro.batch.kernel.STACKED_MIN_LANES`
lanes holds the primary and tower loops as ``(B,)`` arrays and steps
them with ufunc passes.  Each lane must still equal its own reference
plant bit for bit at every step, staging counts and dwell timers
included, with no value crossing lanes.

The trajectory is ``test_staging_equivalence.py``'s: load blocks with
wet-bulb swings, and a tower header-pressure setpoint retuned per
block, which together move all three staging controllers up and down.
Lane ``i`` runs its own window of that trajectory: one fused plant runs
the whole schedule once, and lane ``i`` starts from its snapshot at
step ``i * WINDOW`` (lane 0 from the never-stepped plant), so the
windows cover the schedule between them and the lanes sit in different
blocks at every step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.kernel import (
    STACKED_MIN_LANES,
    BatchedPlantKernel,
    _ScalarFacility,
    _StackedFacility,
)
from repro.config.machines import setonix_spec
from repro.cooling.plant import CoolingPlant
from tests.conftest import make_small_spec

BLOCKS = (
    ("hi", 24.0, 160, 0.2),
    ("lo", 2.0, 200, 2.0),
    ("hi", 26.0, 160, 0.2),
)
HEAT = {"hi": 9.0e5, "lo": 1.0e5}
SCHEDULE = [
    (HEAT[load], wetbulb, dp_scale)
    for load, wetbulb, n_steps, dp_scale in BLOCKS
    for _ in range(n_steps)
]
LANES = STACKED_MIN_LANES
WINDOW = -(-len(SCHEDULE) // LANES)
#: The last steps run with the tail lanes inactive: their rows and
#: their reference plants stay where they are.
TAIL, FROZEN = 4, 3
SYSTEM_W = 4.0e6


def _controllers(plant: CoolingPlant):
    return (
        plant.primary.pump_staging,
        plant.tower.pump_staging,
        plant.tower.cell_staging,
    )


def _facility_state(plant: CoolingPlant) -> tuple:
    primary, tower = plant.primary, plant.tower
    pids = tuple(
        (pid._integral.tobytes(), pid._prev_error.tobytes(), pid._has_prev,
         pid.output.tobytes())
        for pid in (tower.fan_pid, tower.speed_pid)
    )
    stages = tuple(
        (c.count, c._above_s, c._below_s) for c in _controllers(plant)
    )
    return (
        primary.pumps.n_running, primary.n_ehx, primary.pump_speed,
        primary.total_flow, primary.ehx_heat_w, tower.pumps.n_running,
        tower.pump_speed, tower.total_flow, tower.fan_speed,
        tower.htws_delay.y, tower._prev_htws_c, pids, stages,
    )


def _starts(cooling) -> list:
    """The snapshot each lane starts from (``None``: a fresh plant)."""
    plant = CoolingPlant(cooling)
    design = plant.tower.pressure_setpoint_pa
    starts = [None]
    for t, (heat, wetbulb, dp_scale) in enumerate(SCHEDULE):
        if t and t % WINDOW == 0:
            starts.append(plant.snapshot())
        plant.tower.pressure_setpoint_pa = design * dp_scale
        plant.step(np.full(cooling.num_cdus, heat), wetbulb)
    return starts[:LANES]


def _plant(cooling, start, backend):
    plant = CoolingPlant(cooling, backend=backend)
    if start is not None:
        plant.restore(start)
    return plant


def test_stacked_lanes_match_their_reference_plants():
    cooling = setonix_spec().cooling
    starts = _starts(cooling)
    refs = [_plant(cooling, s, "reference") for s in starts]
    lanes = [_plant(cooling, s, "fused") for s in starts]
    design = refs[0].tower.pressure_setpoint_pa
    kernel = BatchedPlantKernel(lanes)
    assert isinstance(kernel.facility, _StackedFacility)
    dp_scales = [None] * LANES
    counts = []
    for step in range(WINDOW + TAIL):
        active = LANES - FROZEN if step >= WINDOW else LANES
        heats, wetbulbs = [], []
        for i in range(active):
            heat, wetbulb, dp_scale = SCHEDULE[(i * WINDOW + step) % len(SCHEDULE)]
            heats.append(np.full(cooling.num_cdus, heat))
            wetbulbs.append(wetbulb)
            if dp_scale != dp_scales[i]:
                # A retune reaches a resident row through a gather.
                dp_scales[i] = dp_scale
                for plant in (refs[i], lanes[i]):
                    plant.tower.pressure_setpoint_pa = design * dp_scale
                kernel.gather(i, lanes[i])
        kernel.advance(heats, wetbulbs, 3.0, 5, active=active)
        columns = kernel.cooling_records([SYSTEM_W] * active, active=active)
        kernel.write_back(lanes)
        for i in range(active):
            state = refs[i].step(heats[i], wetbulbs[i], system_power_w=SYSTEM_W)
            for key, column in columns.items():
                np.testing.assert_array_equal(
                    column[i], getattr(state, key), err_msg=f"step {step} lane {i} {key}"
                )
            np.testing.assert_array_equal(
                lanes[i]._snapshot(heats[i], SYSTEM_W).as_output_vector(),
                state.as_output_vector(),
            )
            assert _facility_state(lanes[i]) == _facility_state(refs[i]), (
                f"step {step} lane {i}"
            )
        counts.append([
            [c.count for c in _controllers(plant)] for plant in refs
        ])

    for i in range(LANES):
        assert _facility_state(lanes[i]) == _facility_state(refs[i])
    moves = np.diff(np.array(counts[:WINDOW]), axis=0)
    for name, lane_moves in zip(("HTWP", "CTWP", "cell"), moves.T):
        assert (lane_moves > 0).any(), f"{name} count never rose"
        assert (lane_moves < 0).any(), f"{name} count never fell"


@pytest.mark.parametrize(
    "lanes, form",
    [
        (1, _ScalarFacility),
        (STACKED_MIN_LANES - 1, _ScalarFacility),
        (STACKED_MIN_LANES, _StackedFacility),
        (STACKED_MIN_LANES + 1, _StackedFacility),
    ],
)
def test_kernel_picks_its_facility_form_from_the_lane_count(lanes, form):
    plant = CoolingPlant(make_small_spec(num_cdus=4, racks_per_cdu=1).cooling)
    assert type(BatchedPlantKernel([plant] * lanes).facility) is form
    assert type(plant._kernel.facility) is _ScalarFacility


def test_stacked_form_steps_like_the_scalar_form(monkeypatch):
    """Many lanes under random per-lane heat and wet-bulb: the stacked
    form against the scalar one (itself the reference's mirror), row
    for row.  The random inputs reach the ULP-level hazards (the
    Python-float pows) far more often than the staging trajectory."""
    import repro.batch.kernel as kernel_module

    cooling = setonix_spec().cooling
    rng = np.random.default_rng(7)
    lanes = 64
    stacked = BatchedPlantKernel([CoolingPlant(cooling)] * lanes)
    monkeypatch.setattr(kernel_module, "STACKED_MIN_LANES", lanes + 1)
    scalar = BatchedPlantKernel([CoolingPlant(cooling)] * lanes)
    assert isinstance(stacked.facility, _StackedFacility)
    assert isinstance(scalar.facility, _ScalarFacility)
    for step in range(80):
        active = lanes - step // 20
        heats = list(rng.uniform(5e4, 1.0e6, (active, cooling.num_cdus)))
        wetbulbs = rng.uniform(-5.0, 30.0, active).tolist()
        for kernel in (stacked, scalar):
            kernel.advance(heats, wetbulbs, 3.0, 5, active=active)
        for a, b in zip(
            stacked.facility.columns(lanes), scalar.facility.columns(lanes)
        ):
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()
        for name in ("hot_t", "cold_t", "out50", "integ50", "pri_return"):
            np.testing.assert_array_equal(
                getattr(stacked, name), getattr(scalar, name), err_msg=name
            )
    plants = [[CoolingPlant(cooling) for _ in range(lanes)] for _ in range(2)]
    stacked.write_back(plants[0])
    scalar.write_back(plants[1])
    for a, b in zip(*plants):
        assert _facility_state(a) == _facility_state(b)
