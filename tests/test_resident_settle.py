"""Resident warmup: cold plants settle in one kernel, bit for bit.

:func:`~repro.core.engine.warm_cooling` settles every cold warm group of
a run together — on the fused backend the groups' plants are gathered
into one resident kernel once, advanced through the whole idle warmup
and written back once — and :meth:`CoolingPlant.warmup
<repro.cooling.plant.CoolingPlant.warmup>` is the one-plant call of the
same settle.  The oracle kept here is the per-step path: a loop of
``do_step`` (or ``step``) calls, each of which syncs the plant graph.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.batch.kernel import STACKED_MIN_LANES
from repro.config.frontier import frontier_spec
from repro.cooling.fmu import CoolingFMU, FmuState
from repro.cooling.plant import CoolingPlant
from repro.core.engine import (
    COOLING_SUBSTEP_S,
    RapsEngine,
    warm_cooling,
)
from repro.core.profiling import PhaseProfiler
from repro.core.whatif import _make_chain
from repro.exceptions import FMUError
from repro.power.system import SystemPowerModel
from repro.scheduler.workloads import synthetic_workload
from repro.service.warmcache import WarmStateCache
from repro.telemetry.schema import TRACE_QUANTA_S
from tests.conftest import assert_same_state, make_small_spec

WARMUP_S = 600.0
STEPS = int(WARMUP_S / TRACE_QUANTA_S)


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.fixture(scope="module")
def idle(spec):
    """The baseline and a chain override's idle loads (their heats differ)."""
    base = SystemPowerModel(spec).idle()
    override = SystemPowerModel(
        spec, chain=_make_chain(spec, "direct-dc")
    ).idle()
    assert not np.array_equal(base.cdu_heat_w, override.cdu_heat_w)
    return base, override


def _fmu(spec, backend="fused") -> CoolingFMU:
    fmu = CoolingFMU(spec.cooling, substep_s=COOLING_SUBSTEP_S, backend=backend)
    fmu.setup_experiment(start_time=0.0)
    return fmu


def _per_step(spec, wb0: float, power) -> CoolingFMU:
    """The oracle: one group warmed by a ``do_step`` loop, as each warm
    group was before the settle."""
    fmu = _fmu(spec)
    fmu.set_cdu_heat(power.cdu_heat_w)
    fmu.set_wetbulb(wb0)
    fmu.set_system_power(power.system_power_w)
    for _ in range(STEPS):
        fmu.do_step(fmu.time, TRACE_QUANTA_S)
    fmu._time = 0.0
    fmu._plant.time_s = 0.0
    return fmu


def _assert_warmed(fmu: CoolingFMU, oracle: CoolingFMU, label: str) -> None:
    """The whole FMU state: graph arrays, PID integrals and ``_has_prev``,
    staging counters, inputs, ``last_state``, both clocks, lifecycle."""
    assert fmu.state is FmuState.STEPPING, label
    assert (fmu.time, fmu._plant.time_s) == (0.0, 0.0), label
    assert fmu.last_state.time_s == WARMUP_S, label
    assert_same_state(fmu.get_fmu_state(), oracle.get_fmu_state(), label)


@pytest.mark.parametrize("n_groups", [1, 4, STACKED_MIN_LANES + 2])
def test_cold_groups_settle_like_per_step_warmups(
    spec, idle, n_groups, monkeypatch
):
    """G cold groups (G = 20 runs the stacked facility form) at mixed
    wet-bulbs, the last a chain override with its own idle heat and no
    cache: every settled FMU, replicas included, and every cached
    snapshot equal the per-step warmup's."""
    base, override = idle
    cache = WarmStateCache(max_entries=2 * n_groups)
    wetbulbs = [10.0 + 0.5 * g for g in range(n_groups)]
    groups, oracles = [], []
    for g, wb0 in enumerate(wetbulbs):
        chained = n_groups > 1 and g == n_groups - 1
        power = override if chained else base
        fmus = [_fmu(spec) for _ in range(1 + g % 2)]
        groups.append((fmus, wb0, lambda p=power: p, None if chained else cache))
        oracles.append(_per_step(spec, wb0, power))
    calls = []
    original = CoolingFMU.do_step
    monkeypatch.setattr(
        CoolingFMU, "do_step",
        lambda self, *a: calls.append(self) or original(self, *a),
    )
    warm_cooling(groups, spec, WARMUP_S)
    assert calls == []
    cached = n_groups - (n_groups > 1)
    assert (cache.hits, cache.misses) == (0, cached)
    for (fmus, wb0, _, group_cache), oracle in zip(groups, oracles):
        for i, fmu in enumerate(fmus):
            _assert_warmed(fmu, oracle, f"wb {wb0} fmu {i}")
        if group_cache is None:
            continue
        stored = cache.lookup(spec, wb0, WARMUP_S, COOLING_SUBSTEP_S)
        assert_same_state(stored, oracle.get_fmu_state(), f"wb {wb0} cached")


def test_cache_hits_restore_beside_cold_groups(spec, idle):
    """A warm group restores from the cache (one lookup, no stepping)
    while a cold group settles: both equal the per-step warmup."""
    base, _ = idle
    cache = WarmStateCache()
    warm_cooling([([_fmu(spec)], 12.0, lambda: base, cache)], spec, WARMUP_S)
    hit, cold = [_fmu(spec)], [_fmu(spec)]
    powers = []

    def counted():
        powers.append(base)
        return base

    warm_cooling(
        [(hit, 12.0, counted, cache), (cold, 20.0, counted, cache)],
        spec,
        WARMUP_S,
    )
    assert len(powers) == 1  # idle load only for the stepped group
    assert (cache.hits, cache.misses) == (1, 2)
    _assert_warmed(hit[0], _per_step(spec, 12.0, base), "hit")
    _assert_warmed(cold[0], _per_step(spec, 20.0, base), "cold")


def test_reference_backend_warms_through_do_step(spec, idle, monkeypatch):
    """A reference-backend twin keeps the per-step oracle path: 1800 s
    of warmup is 120 ``do_step`` calls, and ends where the fused settle
    ends."""
    base, _ = idle
    ref, fused = _fmu(spec, "reference"), _fmu(spec)
    calls = []
    original = CoolingFMU.do_step
    monkeypatch.setattr(
        CoolingFMU, "do_step",
        lambda self, *a: calls.append(self) or original(self, *a),
    )
    warm_cooling(
        [([ref], 15.0, lambda: base, None), ([fused], 15.0, lambda: base, None)],
        spec,
        1800.0,
    )
    assert len(calls) == 120 and all(fmu is ref for fmu in calls)
    assert_same_state(
        fused.get_fmu_state().plant, ref.get_fmu_state().plant, "plant"
    )
    assert_same_state(fused.last_state, ref.last_state, "last_state")


def test_implausible_wetbulb_fails_before_any_settle(spec, idle):
    base, _ = idle
    good, bad = _fmu(spec), _fmu(spec)
    with pytest.raises(FMUError, match=r"implausible wet-bulb 60\.0 degC"):
        warm_cooling(
            [([good], 15.0, lambda: base, None), ([bad], 60.0, lambda: base, None)],
            spec,
            WARMUP_S,
        )
    assert good.last_state is None and good.state is FmuState.EXPERIMENT_READY


@pytest.mark.parametrize("duration_s", [15.0, 600.0])
def test_plant_warmup_settles_like_a_step_loop(duration_s):
    """Fused ``CoolingPlant.warmup`` equals a ``step`` loop: the returned
    state, the clock and the component graph."""
    cooling = frontier_spec().cooling
    heat = np.full(cooling.num_cdus, 450e3)
    settled, stepped = CoolingPlant(cooling), CoolingPlant(cooling)
    state = settled.warmup(heat, 17.0, duration_s=duration_s)
    for _ in range(int(duration_s / cooling.step_seconds)):
        expected = stepped.step(heat, 17.0)
    assert settled.time_s == stepped.time_s == duration_s
    assert_same_state(state, expected, "warmup state")
    assert_same_state(settled.snapshot(), stepped.snapshot(), "graph")


def test_profiler_warmup_phase_wraps_the_settle(spec, monkeypatch):
    """``lane_loop``'s ``warmup`` phase holds the settle's time."""
    original = CoolingFMU.settle

    def slow(fmus, steps, step_size):
        time.sleep(0.05)
        original(fmus, steps, step_size)

    monkeypatch.setattr(CoolingFMU, "settle", staticmethod(slow))
    profiler = PhaseProfiler()
    engine = RapsEngine(spec, profiler=profiler)
    engine.run(
        synthetic_workload(spec, 60.0, seed=1), 60.0, warmup_cooling_s=60.0
    )
    assert profiler.totals["warmup"] >= 0.05
