"""Fast-path acceptance bench: surrogate campaign speedup vs error.

Runs the same sweep campaign grid at full fidelity and at surrogate
fidelity on the miniature Frontier-flavored system, each leg
``ROUNDS`` times in interleaved rounds
(:func:`~benchmarks.conftest.interleaved_minima`), and asserts the fast
path's contract on each leg's fastest run:

- the surrogate campaign completes >= 10x faster than full fidelity on
  the same grid (training time reported separately: it is paid once
  and amortized over every later campaign; the bar was 50x against the
  original object-graph plant and was recalibrated when the fused
  cooling kernel made *full fidelity itself* ~5x faster — the
  surrogate's absolute cell cost is unchanged, its denominator moved),
  and
- mean absolute PUE error vs the full-fidelity cells stays < 0.02.

Results are recorded in ``benchmarks/BENCH_fastpath.json`` through
:func:`~benchmarks.conftest.record_trajectory`: a run seeds the file
when it is missing and rewrites it only with ``REPRO_BENCH_UPDATE=1``,
so the committed snapshot is not overwritten by every local run.  The
timed kernel is one surrogate campaign cell (plan + schedule +
vectorized surrogate physics).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import (
    emit,
    interleaved_minima,
    load_baseline,
    record_trajectory,
)
from repro.fastpath import fit_bundle
from repro.scenarios import (
    Campaign,
    DigitalTwin,
    GridSweepScenario,
    SyntheticScenario,
)
from repro.scenarios.artifacts import git_revision
from tests.conftest import make_small_spec

_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_fastpath.json"
)

CELL_HOURS = 0.5
#: Interleaved rounds per leg: the surrogate leg is a ~60 ms wall time,
#: so one pause in a single run would move the speedup.
ROUNDS = 3
GRID = {"wetbulb_c": (8.0, 16.0, 24.0), "seed": (0, 1)}


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


@pytest.fixture(scope="module")
def trained(spec):
    """(bundle, fit_seconds): production-grade training settings."""
    t0 = time.perf_counter()
    bundle = fit_bundle(
        spec,
        cooling=True,
        cooling_grid=5,
        cooling_degree=3,
        settle_s=1800.0,
    )
    return bundle, time.perf_counter() - t0


def _sweep(fidelity: str) -> GridSweepScenario:
    return GridSweepScenario(
        base=SyntheticScenario(
            duration_s=CELL_HOURS * 3600.0, fidelity=fidelity
        ),
        grid=GRID,
    )


def test_fastpath_campaign_speedup_and_error(
    tmp_path, spec, trained, benchmark
):
    bundle, fit_s = trained

    runs = {"full": [], "surrogate": []}

    def leg(name, **kwargs):
        def run():
            # Each run into its own directory: a campaign resumes from
            # an existing one.
            path = tmp_path / f"{name}-{len(runs[name])}"
            t0 = time.perf_counter()
            cells = Campaign.create(
                path, [_sweep(name)], system=spec, **kwargs
            ).run()
            wall_s = time.perf_counter() - t0
            runs[name].append(cells)
            return wall_s
        return run

    wall = interleaved_minima(
        {"full": leg("full"), "surrogate": leg("surrogate", surrogates=bundle)},
        ROUNDS,
    )
    full_s, fast_s = wall["full"], wall["surrogate"]
    full, fast = runs["full"][-1], runs["surrogate"][-1]

    cells = len(full)
    assert len(fast) == cells
    speedup = full_s / fast_s
    pue_errors = [
        abs(f.metrics()["mean_pue"] - s.metrics()["mean_pue"])
        for f, s in zip(full, fast)
    ]
    power_rel_errors = [
        abs(f.metrics()["mean_power_mw"] - s.metrics()["mean_power_mw"])
        / f.metrics()["mean_power_mw"]
        for f, s in zip(full, fast)
    ]
    mae_pue = float(np.mean(pue_errors))

    doc = {
        "system": spec.name,
        "grid": {k: list(v) for k, v in GRID.items()},
        "cells": cells,
        "cell_hours": CELL_HOURS,
        "full_wall_s": round(full_s, 3),
        "surrogate_wall_s": round(fast_s, 3),
        "fit_wall_s": round(fit_s, 3),
        "rounds": ROUNDS,
        "speedup": round(speedup, 1),
        "mean_abs_pue_error": round(mae_pue, 5),
        "max_abs_pue_error": round(float(np.max(pue_errors)), 5),
        "max_rel_power_error": round(float(np.max(power_rel_errors)), 6),
        "git_rev": git_revision(),
    }
    record_trajectory(_BENCH_JSON, doc, load_baseline(_BENCH_JSON))
    emit(
        "Fast path - surrogate campaign speedup vs error",
        json.dumps(doc, indent=2),
    )

    # Acceptance: >= 10x on the same grid (vs the fused-kernel L4
    # baseline — see the module docstring), PUE MAE < 0.02.
    assert speedup >= 10.0, f"only {speedup:.0f}x"
    assert mae_pue < 0.02, f"PUE MAE {mae_pue:.4f}"
    assert max(power_rel_errors) < 0.01

    # Timed kernel: one surrogate campaign cell, end to end.
    twin = DigitalTwin(spec, fidelity="surrogate", surrogates=bundle)
    cell = SyntheticScenario(
        duration_s=CELL_HOURS * 3600.0, wetbulb_c=16.0, seed=0
    )
    outcome = benchmark(cell.run, twin)
    assert outcome.metrics()["mean_pue"] > 1.0
