"""Batched-engine perf bench: the BENCH_batched.json trajectory.

Times the headline claim of the batched multi-scenario engine: B
campaign cells advanced by one vectorized :class:`BatchedEngine` call
beat B back-to-back serial runs, because the batch pays one plant
warmup per (spec, wetbulb) group and amortizes per-step Python
dispatch across lanes.  The acceptance bar is the issue's grid: >= 3x
campaign-cell throughput at B=16 over the serial loop, with exact
bit-identity per lane (the speedup is worthless if the bits drift).

Guard ratios follow the BENCH_core.json rules: interleaved measurement
rounds, per-process CPU-time minima (hardware-independent to first
order), baseline rewritten only on first creation or under
``REPRO_BENCH_UPDATE=1``.

Beside the guard, the file records the batched engine's cells/s at
B = 1, 16 and 64 (``cells_per_s_by_width``, with its git rev): the
curve the kernel's two facility forms shape (per-lane floats below
``STACKED_MIN_LANES`` lanes, ``(B,)`` arrays from there).  Those rows
are recorded, not gated, under the same rewrite rule.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import (
    bench_json_path,
    check_ratio,
    emit,
    load_baseline,
    record_trajectory,
)
from repro.batch import BatchedEngine
from repro.scenarios import DigitalTwin, SyntheticScenario
from repro.scenarios.artifacts import git_revision
from tests.conftest import assert_bitidentical, make_small_spec

_BENCH_JSON = bench_json_path("batched")

#: Lanes per batch — the acceptance grid's widest width.
BATCH = 16
#: Batch widths of the recorded cells/s curve.
WIDTHS = (1, 16, 64)
WIDTH_KEY = "cells_per_s_by_width"
#: Simulated span per cell — the same 0.5 h cells BENCH_core.json
#: uses for its campaign-throughput row.  Coupled cells pay an 1800 s
#: plant warmup, which the serial loop repeats B times and the batch
#: pays once.
CELL_HOURS = 0.5


def _scenarios(batch=BATCH):
    """B coupled cells of one campaign row: same plant and weather
    (so the batch shares a single warmup group), distinct workloads."""
    return [
        SyntheticScenario(
            name=f"cell-{v}",
            duration_s=CELL_HOURS * 3600.0,
            seed=v,
            wetbulb_c=15.0,
        )
        for v in range(batch)
    ]


def _timed_serial(spec):
    scenarios = _scenarios()
    t0 = time.perf_counter()
    c0 = time.process_time()
    results = [s.run(DigitalTwin(spec)) for s in scenarios]
    cpu = time.process_time() - c0
    return time.perf_counter() - t0, cpu, results


def _timed_batched(spec, batch=BATCH):
    scenarios = _scenarios(batch)
    engine = BatchedEngine(scenarios, DigitalTwin(spec))
    t0 = time.perf_counter()
    c0 = time.process_time()
    results = engine.run()
    cpu = time.process_time() - c0
    return time.perf_counter() - t0, cpu, engine, results


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.mark.slow
def test_bench_batched_trajectory(spec):
    baseline = load_baseline(_BENCH_JSON)

    # Interleaved rounds, per-category CPU-time minima: both sides of
    # the guard ratio see the same machine conditions.
    serial_wall = serial_cpu = np.inf
    batched_wall = batched_cpu = np.inf
    engine = serial_results = batched_results = None
    for _ in range(2):
        wall, cpu, serial_results = _timed_serial(spec)
        serial_wall = min(serial_wall, wall)
        serial_cpu = min(serial_cpu, cpu)
        wall, cpu, engine, batched_results = _timed_batched(spec)
        batched_wall = min(batched_wall, wall)
        batched_cpu = min(batched_cpu, cpu)

    # --- equivalence first: every lane bit-identical to its serial run.
    for i, (a, b) in enumerate(zip(batched_results, serial_results)):
        assert_bitidentical(a, b, label=f"lane {i}")

    speedup = serial_cpu / batched_cpu
    serial_cells_per_s = BATCH / serial_wall
    batched_cells_per_s = BATCH / batched_wall

    doc = {
        "system": spec.name,
        "batch": BATCH,
        "cell_hours": CELL_HOURS,
        "serial_wall_s": round(serial_wall, 3),
        "batched_wall_s": round(batched_wall, 3),
        "serial_cpu_s": round(serial_cpu, 3),
        "batched_cpu_s": round(batched_cpu, 3),
        "batched_vs_serial_speedup": round(speedup, 2),
        "serial_cells_per_s": round(serial_cells_per_s, 3),
        "batched_cells_per_s": round(batched_cells_per_s, 3),
        "power_evals": engine.power_evals,
        "power_reuses": engine.power_reuses,
        "git_rev": git_revision(),
    }
    emit(
        "BATCHED ENGINE BENCH (BENCH_batched.json)",
        json.dumps(doc, indent=2),
    )

    # --- acceptance: one vectorized call must beat B serial runs 3x.
    assert speedup >= 3.0, (
        f"batched engine only {speedup:.2f}x over {BATCH} serial runs "
        f"(need >= 3x)"
    )

    # --- machine-independent regression guard vs the committed
    # baseline, then self-seed / refresh the trajectory of record.
    check_ratio(baseline, "batched_vs_serial_speedup", speedup)
    if baseline and WIDTH_KEY in baseline:
        doc[WIDTH_KEY] = baseline[WIDTH_KEY]
    record_trajectory(_BENCH_JSON, doc, baseline)


@pytest.mark.slow
def test_bench_batched_cells_per_s_by_width(spec):
    """Batched cells/s from B = 1 to B = 64, recorded with the git rev.

    Bit-identity first: two lanes of the widest batch equal their solo
    serial runs.  Each width's wall time is the minimum of two runs.
    """
    widest = BatchedEngine(_scenarios(max(WIDTHS)), DigitalTwin(spec)).run()
    for i, scenario in enumerate(_scenarios(2)):
        assert_bitidentical(
            widest[i], scenario.run(DigitalTwin(spec)), label=f"lane {i}"
        )

    cells_per_s = {}
    for width in WIDTHS:
        wall = min(_timed_batched(spec, width)[0] for _ in range(2))
        cells_per_s[str(width)] = round(width / wall, 3)
    rows = {
        "system": spec.name,
        "cell_hours": CELL_HOURS,
        "cells_per_s": cells_per_s,
        "git_rev": git_revision(),
    }
    emit("BATCHED CELLS/S BY WIDTH", json.dumps(rows, indent=2))

    baseline = load_baseline(_BENCH_JSON) or {}
    if WIDTH_KEY not in baseline or os.environ.get("REPRO_BENCH_UPDATE") == "1":
        baseline[WIDTH_KEY] = rows
        with open(_BENCH_JSON, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
