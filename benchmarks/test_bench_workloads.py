"""Workload-generator perf bench: the BENCH_workloads.json trajectory.

Times the generator subsystem the stress suites are built on:

- raw generation throughput (jobs/s) for a dense 24 h diurnal workload
  on the miniature Frontier-flavored system,
- the run's workload memo: a checkout (spec-SHA key, memo lookup and
  clone) vs regeneration — the ratio that makes sweeping engine
  parameters over a fixed workload within one executor call cheap,
- stress-suite cell throughput (cells/s through generate -> run ->
  validate on a small persisted grid).

Results land in ``benchmarks/BENCH_workloads.json``.  As with
``BENCH_core.json``, the committed file is the regression baseline and
the guard is *ratio*-based (memo-vs-fresh generation speedup), which
is hardware-independent to first order: a >20 % regression against the
committed ratio fails the bench.  Ratios come from per-process CPU time
over interleaved measurement rounds
(:func:`~benchmarks.conftest.interleaved_minima`), and the baseline is
only rewritten on first creation or with ``REPRO_BENCH_UPDATE=1``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np
import pytest

from benchmarks.conftest import (
    bench_json_path,
    check_ratio,
    emit,
    interleaved_minima,
    load_baseline,
    record_trajectory,
)
from repro.scenarios import GeneratedScenario, GridSweepScenario
from repro.scenarios.artifacts import git_revision
from repro.scenarios.base import WorkloadMemo
from repro.workloads import DiurnalWorkload, StressSuite
from tests.conftest import make_small_spec

_BENCH_JSON = bench_json_path("workloads")

GEN_HOURS = 24.0
#: Memo checkouts per timing sample (a single clone pass is too fast
#: to time stably on its own).
CHECKOUTS = 50
#: Interleaved fresh-generate / memo-checkout rounds (each variant's
#: minimum is kept).
ROUNDS = 15


def _timed(fn):
    t0 = time.perf_counter()
    c0 = time.process_time()
    out = fn()
    return time.perf_counter() - t0, time.process_time() - c0, out


@pytest.mark.slow
def test_bench_workload_trajectory():
    baseline = load_baseline(_BENCH_JSON)

    spec = make_small_spec()
    gen = DiurnalWorkload(seed=0, mean_arrival_s=60.0)
    duration_s = GEN_HOURS * 3600.0

    memo = WorkloadMemo()

    def checkout():
        # What a generated plan and its engine do: key, look up, clone.
        key = ("generated", gen.spec_sha(), duration_s)
        return memo.checkout(
            memo.jobs(key, lambda: gen.generate(spec, duration_s))
        )

    jobs = checkout()  # build the template

    def checkouts():
        for _ in range(CHECKOUTS):
            checkout()

    # Interleaved rounds, per-variant minimum: both sides of the guard
    # ratio see the same machine conditions.  The variants return CPU
    # time; their wall-time minima are kept beside it.
    wall = {"fresh": np.inf, "cached": np.inf}

    def variant(name, fn):
        def timed():
            seconds, cpu, _ = _timed(fn)
            wall[name] = min(wall[name], seconds)
            return cpu

        return timed

    cpu = interleaved_minima(
        {
            "fresh": variant("fresh", lambda: gen.generate(spec, duration_s)),
            "cached": variant("cached", checkouts),
        },
        ROUNDS,
    )
    fresh_wall, fresh_cpu = wall["fresh"], cpu["fresh"]
    cached_wall = wall["cached"] / CHECKOUTS
    cached_cpu = cpu["cached"] / CHECKOUTS

    jobs_per_s = len(jobs) / fresh_wall
    cache_speedup = fresh_cpu / cached_cpu

    # --- stress-suite throughput: generate -> run -> validate a small
    # uncoupled grid through a persisted campaign.
    sweep = GridSweepScenario(
        base=GeneratedScenario(
            name="bench",
            duration_s=900.0,
            with_cooling=False,
            workload=DiurnalWorkload(seed=1, mean_arrival_s=120.0),
        ),
        grid={"workload.mean_arrival_s": (120.0, 240.0), "seed": (0, 1)},
    )
    cells = len(sweep.expand())
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        suite = StressSuite.create(
            os.path.join(tmp, "suite"), [sweep], system=spec
        )
        report = suite.run()
        suite_wall = time.perf_counter() - t0
    assert report.complete and not report.failed
    cells_per_s = cells / suite_wall

    doc = {
        "system": spec.name,
        "generated_hours": GEN_HOURS,
        "generated_jobs": len(jobs),
        "generate_wall_s": round(fresh_wall, 4),
        "generate_cpu_s": round(fresh_cpu, 4),
        "generate_jobs_per_s": round(jobs_per_s, 1),
        "cached_checkout_wall_s": round(cached_wall, 5),
        "cached_checkout_cpu_s": round(cached_cpu, 5),
        "cache_checkout_speedup": round(cache_speedup, 2),
        "stress_cells": cells,
        "stress_cell_hours": 0.25,
        "stress_wall_s": round(suite_wall, 3),
        "stress_cells_per_s": round(cells_per_s, 3),
        "git_rev": git_revision(),
    }
    emit(
        "WORKLOAD GENERATOR BENCH (BENCH_workloads.json)",
        json.dumps(doc, indent=2),
    )

    # --- acceptance: checking a memo-built workload out must beat
    # regenerating it by a wide margin, or memoized generation is moot.
    assert cache_speedup >= 2.0, (
        f"memo checkout only {cache_speedup:.2f}x over regeneration"
    )

    # --- machine-independent regression guard vs the committed
    # baseline, then self-seed / refresh the trajectory of record.
    check_ratio(baseline, "cache_checkout_speedup", cache_speedup)
    record_trajectory(_BENCH_JSON, doc, baseline)
