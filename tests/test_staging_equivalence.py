"""Staging under the fused kernel: HTWP, CTWP and cell counts both ways.

The kernel-equivalence trajectories mostly stage upward, and never
move the CTWPs.  This trajectory drives all three staging controllers
(primary pumps, tower pumps, tower cells) up *and* down on each
builtin plant layout: load blocks with wet-bulb swings move the HTWPs
and the cells, and a retuned tower header-pressure setpoint moves the
CTWPs.  The fused plant must match the reference graph bit for bit at
every step, dwell timers included, and the trajectory must prove its
own coverage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.frontier import frontier_spec
from repro.config.machines import marconi100_spec, setonix_spec
from repro.cooling.plant import CoolingPlant

SYSTEMS = {
    "frontier": (frontier_spec, 9.0e5, 1.0e5),
    "setonix": (setonix_spec, 9.0e5, 1.0e5),
    "marconi100": (marconi100_spec, 4.0e5, 4.0e4),
}

# (load: "hi" or "lo", wet-bulb C, macro steps, tower dp setpoint as a
# multiple of the design setpoint).  A low setpoint parks the CTWPs
# below their stage-down speed, a high one pins them at full speed.
BLOCKS = (
    ("hi", 24.0, 160, 0.2),
    ("lo", 2.0, 200, 2.0),
    ("hi", 26.0, 160, 0.2),
)


def _controllers(plant: CoolingPlant):
    return (
        plant.primary.pump_staging,
        plant.tower.pump_staging,
        plant.tower.cell_staging,
    )


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_staging_up_and_down_bit_identical(system):
    make_spec, hi, lo = SYSTEMS[system]
    cooling = make_spec().cooling
    ref = CoolingPlant(cooling, backend="reference")
    fused = CoolingPlant(cooling, backend="fused")
    design_dp = ref.tower.pressure_setpoint_pa
    counts = []
    for load, wetbulb, n_steps, dp_scale in BLOCKS:
        heat = np.full(cooling.num_cdus, hi if load == "hi" else lo)
        for plant in (ref, fused):
            plant.tower.pressure_setpoint_pa = design_dp * dp_scale
        for _ in range(n_steps):
            s_ref = ref.step(heat, wetbulb)
            s_fused = fused.step(heat, wetbulb)
            np.testing.assert_array_equal(
                s_ref.as_output_vector(), s_fused.as_output_vector()
            )
            for a, b in zip(_controllers(ref), _controllers(fused)):
                assert (a.count, a._above_s, a._below_s) == (
                    b.count, b._above_s, b._below_s
                )
            counts.append([c.count for c in _controllers(ref)])

    steps = np.diff(np.array(counts), axis=0)
    for name, moves in zip(("HTWP", "CTWP", "cell"), steps.T):
        assert (moves > 0).any(), f"{name} count never rose"
        assert (moves < 0).any(), f"{name} count never fell"
