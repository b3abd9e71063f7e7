"""Direct plant users sync every step: the fused backend's one-lane kernel.

``CoolingPlant.step`` on the fused backend gathers the component graph
into its one-lane batched kernel, advances it and writes it back, so any
mutation of the graph between steps reaches the next step exactly as it
does on the reference backend.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np

from repro.config.frontier import frontier_spec
from repro.cooling.plant import CoolingPlant
from repro.core.engine import RapsEngine
from tests.conftest import make_small_spec


def _step_both(ref, fused, heat, wetbulb, steps):
    for _ in range(steps):
        a = ref.step(heat, wetbulb)
        b = fused.step(heat, wetbulb)
        np.testing.assert_array_equal(a.as_output_vector(), b.as_output_vector())


def test_header_dp_retuning_reaches_the_kernel():
    """The valve draw term follows a retuned HTW header dp."""
    spec = frontier_spec().cooling
    ref = CoolingPlant(spec, backend="reference")
    fused = CoolingPlant(spec, backend="fused")
    heat = np.full(spec.num_cdus, 560e3)
    _step_both(ref, fused, heat, 15.0, 20)
    for plant in (ref, fused):
        plant.primary_header_dp_pa *= 0.8
    _step_both(ref, fused, heat, 15.0, 40)


def test_restore_after_stepping_regathers():
    """Restoring an earlier capsule into a plant that has stepped since
    continues from the capsule, not from the kernel's last row."""
    spec = frontier_spec().cooling
    ref = CoolingPlant(spec, backend="reference")
    fused = CoolingPlant(spec, backend="fused")
    heat = np.full(spec.num_cdus, 500e3)
    _step_both(ref, fused, heat, 14.0, 10)
    capsule = fused.snapshot()
    _step_both(ref, fused, heat * 1.5, 14.0, 10)
    for plant in (ref, fused):
        plant.restore(capsule)
    _step_both(ref, fused, heat, 14.0, 20)


def test_stepped_plant_frees_by_refcount():
    """The plant owns its one-lane kernel and the kernel keeps no
    reference back, so a plant (and a coupled engine run) leaves no
    cyclic garbage behind."""
    spec = make_small_spec()
    gc.collect()
    gc.disable()
    try:
        plant = CoolingPlant(spec.cooling)
        plant.step(np.full(spec.cooling.num_cdus, 4e5), 15.0)
        ref = weakref.ref(plant)
        del plant
        assert ref() is None
        RapsEngine(spec).run([], 300.0, warmup_cooling_s=150.0)
        assert gc.collect() == 0
    finally:
        gc.enable()
