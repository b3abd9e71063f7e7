"""Core-engine perf bench: the BENCH_core.json trajectory.

Times the full-fidelity hot path on the miniature Frontier-flavored
system and records the cross-PR perf trajectory the fused-kernel work
is graded on:

- a coupled 24 h replay with ``cooling_backend="fused"`` vs the
  ``"reference"`` object graph (acceptance: >= 3x, outputs within 1e-9
  relative — asserted bit-exact),
- the same replay uncoupled (the cooling-overhead ratio the paper's
  "three minutes without cooling" observation is about),
- campaign cell throughput (cells/s through a persisted store with a
  warm-plant cache),
- the per-phase profile of the fused coupled run,
- a full-Frontier 24 h uncoupled telemetry replay (the Table IV path):
  CPU seconds, its schedule and power phases and its scheduler ticks.
  These are recorded for history only; no guard reads them.

Results land in ``benchmarks/BENCH_core.json``.  The committed file is
also the regression baseline: because machines differ, the guard is on
*ratios* (fused-vs-reference speedup and coupled-vs-uncoupled
overhead), which are hardware-independent to first order — a >20 %
regression against the committed baseline fails the bench.  Two
stability rules keep the guard honest: the ratios are computed from
per-process *CPU time* over interleaved measurement rounds (wall time
is reported too, but machine state — turbo, co-tenants — cannot skew a
CPU-time ratio much), and the committed baseline is only rewritten
when ``REPRO_BENCH_UPDATE=1`` (or on first creation), so a lucky fast
run can never ratchet the bar for honest later runs.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import (
    RATIO_REGRESSION,
    bench_json_path,
    check_ratio,
    emit,
    load_baseline,
    record_trajectory,
)
from repro.config.frontier import frontier_spec
from repro.core.engine import RapsEngine
from repro.core.profiling import PhaseProfiler
from repro.scenarios import (
    Campaign,
    DigitalTwin,
    GridSweepScenario,
    SyntheticScenario,
)
from repro.scenarios.artifacts import git_revision
from repro.scheduler.workloads import jobs_from_dataset
from repro.service.warmcache import WarmStateCache
from repro.telemetry.synthesis import (
    SyntheticTelemetryGenerator,
    WorkloadDayParams,
)
from tests.conftest import make_small_spec

_BENCH_JSON = bench_json_path("core")

REPLAY_HOURS = 24.0


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


def _timed_replay(spec, *, backend=None, with_cooling=True, profiler=None):
    """One timed 24 h replay.

    Returns ``(wall_s, cpu_s, engine, SimulationResult)`` — wall time
    for human-facing reporting, per-process CPU time for the guard
    ratios.
    """
    twin = DigitalTwin(spec, cooling_backend=backend or "fused")
    scenario = SyntheticScenario(
        duration_s=REPLAY_HOURS * 3600.0, seed=0, with_cooling=with_cooling
    )
    plan = scenario.plan(twin)
    engine = scenario.build_engine(twin, plan)
    engine.profiler = profiler
    t0 = time.perf_counter()
    c0 = time.process_time()
    result = engine.run(plan.jobs, plan.duration_s, wetbulb=plan.wetbulb)
    cpu = time.process_time() - c0
    return time.perf_counter() - t0, cpu, engine, result


def _frontier_uncoupled_replay():
    """One full-Frontier 24 h uncoupled replay of a pinned-regime day.

    Returns ``(cpu_s, phases, ticks)``: per-process CPU time, the
    profiler's per-phase totals and the number of scheduler ticks.
    """
    spec = frontier_spec()
    params = WorkloadDayParams(
        mean_arrival_s=45.0,
        mean_nodes_per_job=300.0,
        mean_runtime_s=2400.0,
        mean_gpu_util=0.7,
    )
    day = SyntheticTelemetryGenerator(spec, seed=0).day(0, params=params)
    profiler = PhaseProfiler()
    engine = RapsEngine(
        spec, with_cooling=False, honor_recorded_starts=True, profiler=profiler
    )
    ticks = 0
    tick = engine.scheduler.tick

    def counted_tick(now, arrivals):
        nonlocal ticks
        ticks += 1
        return tick(now, arrivals)

    engine.scheduler.tick = counted_tick
    c0 = time.process_time()
    engine.run(
        jobs_from_dataset(day),
        REPLAY_HOURS * 3600.0,
        wetbulb=day["wetbulb_temperature"],
    )
    cpu = time.process_time() - c0
    return cpu, profiler.as_dict()["phases"], ticks


@pytest.mark.slow
def test_bench_core_trajectory(spec):
    baseline = load_baseline(_BENCH_JSON)

    # Two interleaved measurement rounds (fused / reference / uncoupled
    # back to back), keeping the per-category minimum: both sides of
    # each guard ratio see the same machine conditions, so transient
    # machine state cannot skew the ratios the way independent one-shot
    # timings can.
    profiler = PhaseProfiler()
    fused_wall = ref_wall = uncoupled_wall = np.inf
    fused_cpu = ref_cpu = uncoupled_cpu = np.inf
    for round_no in range(2):
        wall, cpu, fused_engine, fused = _timed_replay(
            spec, backend="fused", profiler=profiler if round_no == 0 else None
        )
        fused_wall = min(fused_wall, wall)
        fused_cpu = min(fused_cpu, cpu)
        wall, cpu, _, reference = _timed_replay(spec, backend="reference")
        ref_wall = min(ref_wall, wall)
        ref_cpu = min(ref_cpu, cpu)
        wall, cpu, _, _ = _timed_replay(spec, with_cooling=False)
        uncoupled_wall = min(uncoupled_wall, wall)
        uncoupled_cpu = min(uncoupled_cpu, cpu)

    # --- equivalence: every recorded cooling output, 1e-9 relative
    # (the fused kernel actually delivers bit-identity).
    max_rel = 0.0
    for key in reference.cooling:
        a = np.asarray(fused.cooling[key], dtype=np.float64)
        b = np.asarray(reference.cooling[key], dtype=np.float64)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=0.0, err_msg=key)
        denom = np.maximum(np.abs(b), 1e-30)
        max_rel = max(max_rel, float(np.max(np.abs(a - b) / denom)))
    np.testing.assert_array_equal(fused.system_power_w, reference.system_power_w)

    speedup = ref_cpu / fused_cpu
    overhead = fused_cpu / uncoupled_cpu

    # --- campaign cell throughput: a small persisted sweep on the
    # fused default with a shared warm-plant cache.
    import tempfile

    grid = GridSweepScenario(
        base=SyntheticScenario(duration_s=1800.0, seed=0),
        grid={"wetbulb_c": (8.0, 14.0, 20.0, 26.0)},
    )
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        campaign = Campaign.create(
            os.path.join(tmp, "campaign"),
            [grid],
            system=spec,
            warm_cache=WarmStateCache(),
        )
        campaign.run()
        campaign_wall = time.perf_counter() - t0
        cells = len(grid.expand())
    cells_per_s = cells / campaign_wall

    phases = profiler.as_dict()["phases"]
    frontier_cpu, frontier_phases, frontier_ticks = _frontier_uncoupled_replay()
    doc = {
        "system": spec.name,
        "replay_hours": REPLAY_HOURS,
        "coupled_fused_wall_s": round(fused_wall, 3),
        "coupled_reference_wall_s": round(ref_wall, 3),
        "uncoupled_wall_s": round(uncoupled_wall, 3),
        "coupled_fused_cpu_s": round(fused_cpu, 3),
        "coupled_reference_cpu_s": round(ref_cpu, 3),
        "uncoupled_cpu_s": round(uncoupled_cpu, 3),
        "fused_vs_reference_speedup": round(speedup, 2),
        "coupled_vs_uncoupled_overhead": round(overhead, 2),
        "equivalence_max_rel_err": max_rel,
        "power_evals": fused_engine.power_evals,
        "campaign_cells": cells,
        "campaign_cell_hours": 0.5,
        "campaign_wall_s": round(campaign_wall, 3),
        "campaign_cells_per_s": round(cells_per_s, 3),
        "phase_cooling_s": phases.get("cooling", {}).get("total_s", 0.0),
        "phase_power_s": phases.get("power", {}).get("total_s", 0.0),
        "phase_schedule_s": phases.get("schedule", {}).get("total_s", 0.0),
        "phase_warmup_s": phases.get("warmup", {}).get("total_s", 0.0),
        "frontier_uncoupled_replay_cpu_s": round(frontier_cpu, 3),
        "frontier_phase_schedule_s": round(
            frontier_phases["schedule"]["total_s"], 3
        ),
        "frontier_phase_power_s": round(frontier_phases["power"]["total_s"], 3),
        "frontier_tick_calls": frontier_ticks,
        "git_rev": git_revision(),
    }
    emit(
        "CORE ENGINE BENCH (BENCH_core.json)",
        json.dumps(doc, indent=2),
    )

    # --- acceptance: the fused kernel must carry the coupled replay.
    assert speedup >= 3.0, (
        f"fused backend only {speedup:.2f}x over reference (need >= 3x)"
    )
    assert max_rel <= 1e-9

    # --- machine-independent regression guard vs the committed
    # baseline, then self-seed / refresh the trajectory of record.
    check_ratio(baseline, "fused_vs_reference_speedup", speedup)
    check_ratio(
        baseline,
        "coupled_vs_uncoupled_overhead",
        overhead,
        higher_is_better=False,
    )
    record_trajectory(_BENCH_JSON, doc, baseline)
