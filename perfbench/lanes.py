"""``campaign-lanes``: a 64-lane what-if campaign through the batched engine.

A 4 x 16 grid (wet-bulb x workload seed) of 1 h coupled synthetic cells
on the bundled Setonix system runs as ``Campaign.create(...).run(
execution="batched")`` into a fresh artifact directory, which is then
reopened and run again: every cell of that repeat is answered from the
store (``repro campaign resume``).  The campaign twin holds a
:class:`WarmStateCache` filled during set-up, so lanes restore the
warmed plant instead of stepping the 1800 s warmup.

A fresh cell's latency runs from the campaign call to the moment that
cell is persisted; the first result a user sees is the first persisted
cell.  Each repeat counts as one cached request; a fresh campaign is
followed by twelve.
"""

from __future__ import annotations

import shutil
from time import perf_counter

import numpy as np

from measure import (
    SETUP_REPEATS,
    Ledger,
    RunResult,
    median,
    peak_rss_mb,
    quantile,
)

WETBULBS = 4
SEEDS = 16
CELL_S = 3600.0
#: Store-answered repeats per fresh campaign: two or three campaigns
#: fit in a window, and a 70 ms request needs a few dozen samples a run
#: for a steady median.
RESUMES = 12

#: Replay and campaign timings are probe-normalised (see hostclock).
NORMALISED = True


def _inputs(seed: int):
    """The sweep: wet-bulbs in a 10-24 degC band and 16 workload seeds."""
    from repro.scenarios import GridSweepScenario, SyntheticScenario

    rng = np.random.default_rng(seed)
    wetbulbs = tuple(
        float(w) for w in np.sort(rng.choice(np.arange(10.0, 24.5, 0.5),
                                             WETBULBS, replace=False))
    )
    seeds = tuple(int(s) for s in rng.choice(1_000_000, SEEDS, replace=False))
    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=CELL_S, with_cooling=True),
        grid={"wetbulb_c": wetbulbs, "seed": seeds},
    )
    return sweep, wetbulbs, rng


def _set_up(wetbulbs):
    """Spec load, then the warm cache filled for every wet-bulb."""
    from repro.batch import BatchedEngine
    from repro.config.loader import load_builtin_system
    from repro.scenarios import DigitalTwin, SyntheticScenario
    from repro.service.warmcache import WarmStateCache

    spec = load_builtin_system("setonix")
    cache = WarmStateCache()
    BatchedEngine(
        [SyntheticScenario(duration_s=15.0, wetbulb_c=w) for w in wetbulbs],
        DigitalTwin(spec, warm_cache=cache),
    ).run()
    return spec, cache


def _campaign(path, sweep, spec, cache, clock):
    """One fresh campaign plus its store-answered repeats, timed.

    A repeat takes less than the probe timer's interval, so each is
    bracketed by host samples of its own.
    """
    from hostclock import sensitivity
    from repro.scenarios import Campaign

    persisted: list[float] = []
    t0 = perf_counter()
    campaign = Campaign.create(path, [sweep], system=spec, warm_cache=cache)
    campaign.run(
        execution="batched",
        progress=lambda scenario, done, total: persisted.append(perf_counter()),
    )
    fresh_end = perf_counter()
    cached = []
    reloaded = []
    for _ in range(RESUMES):
        with clock.bracket():
            t1 = perf_counter()
            n = len(Campaign.open(path, warm_cache=cache).run(
                execution="batched"
            ).results)
            t2 = perf_counter()
        cached.append(clock.seconds(t1, t2, sensitivity("campaign-resume")))
        reloaded.append(n)
    return {
        "cells": [clock.seconds(t0, p) for p in persisted],
        "first": clock.seconds(t0, persisted[0]),
        "fresh_s": clock.seconds(t0, fresh_end),
        "cached": cached,
        "reloaded": reloaded,
        "start": t0,
        "fresh_end": fresh_end,
        "end": t2,
    }


def _layer_targets():
    from repro.batch.engine import BatchedEngine
    from repro.batch.kernel import BatchedPlantKernel
    from repro.batch.power import BatchedPowerModel
    from repro.cooling.fmu import CoolingFMU
    from repro.power.system import SystemPowerModel
    from repro.scenarios.artifacts import CampaignStore
    from repro.scheduler.engine import SchedulerEngine

    def lanes(args, kwargs):
        active = kwargs.get("active")
        return float(len(args[1]) if active is None else active)

    return [
        (BatchedEngine, "run", "batch.engine"),
        (BatchedPowerModel, "evaluate", "batch.power.evaluate"),
        (BatchedPlantKernel, "advance", "batch.kernel.advance", lanes),
        (CoolingFMU, "do_step", "cooling.do_step"),
        (CoolingFMU, "set_fmu_state", "cooling.set_fmu_state"),
        (SchedulerEngine, "tick", "scheduler.tick"),
        (SystemPowerModel, "evaluate", "power.evaluate"),
        (CampaignStore, "record", "campaign.store.record"),
    ]


def run(args, clock, import_s: float, workdir) -> RunResult:
    sweep, wetbulbs, rng = _inputs(args.seed)
    n_cells = WETBULBS * SEEDS

    build_s = []
    with clock:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            spec, cache = _set_up(wetbulbs)
            build_s.append(clock.seconds(t0, perf_counter()))
    setup_s = import_s + median(build_s)

    ledger = Ledger()
    runs = []
    with clock:
        start = perf_counter()
        while True:
            path = workdir / f"campaign-{len(runs)}"
            ledger.attempt(n_cells + RESUMES)
            runs.append(_campaign(path, sweep, spec, cache, clock))
            if runs[-1]["end"] - start >= args.seconds:
                break
    peak_mb = peak_rss_mb()

    paths = [workdir / f"campaign-{i}" for i in range(len(runs))]
    _check(ledger, paths, runs, sweep, spec, cache, rng)

    cells = [lat for r in runs for lat in r["cells"]]
    e2e = {
        "setup_s": setup_s,
        "sim_hours_per_s": (
            len(cells) * CELL_S / 3600.0 / sum(r["fresh_s"] for r in runs)
        ),
        "job_latency_p50_s": quantile(cells, 0.5),
        "job_latency_p90_s": quantile(cells, 0.9),
        "first_step_p50_s": quantile([r["first"] for r in runs], 0.5),
        "cached_job_latency_p50_s": quantile(
            [c for r in runs for c in r["cached"]], 0.5
        ),
        "peak_rss_mb": peak_mb,
    }
    out = RunResult(e2e=e2e)
    if args.trace:
        rate = e2e["sim_hours_per_s"]
        out.layers = _traced(workdir / "campaign-traced", sweep, spec, cache,
                             clock, rate)
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)
    out.attempted = ledger.attempted
    out.failed = len(ledger.failed)
    out.problems = ledger.problems
    return out


def _check(ledger, paths, runs, sweep, spec, cache, rng) -> None:
    """Invariants on every cell, two lanes against their solo runs, and
    every repeat campaign equal to the first."""
    from repro.core.summary import result_metrics, result_series_doc
    from repro.scenarios import DigitalTwin
    from repro.scenarios.artifacts import CampaignStore
    from repro.workloads.stress import StressSuite

    first = None
    for i, (path, r) in enumerate(zip(paths, runs)):
        for k, n in enumerate(r["reloaded"]):
            if n != WETBULBS * SEEDS:
                ledger.fail(f"campaign {i} repeat {k}", f"{n} cells")
        report = StressSuite.open(path).validate()
        for cell in report.failed:
            ledger.fail(f"campaign {i} cell {cell.index}", str(cell.failures))
        stored = CampaignStore.open(path).completed()
        if first is None:
            first = stored
            continue
        for index, cell in stored.items():
            if not _same_cell(cell, first[index].metrics(), first[index].series):
                ledger.fail(f"campaign {i} cell {index}", "differs from run 0")

    twin = DigitalTwin(spec, warm_cache=cache)
    cells = sweep.expand()
    for index in rng.choice(len(cells), 2, replace=False):
        solo = cells[index].run(twin)
        series = {
            k: np.asarray(v) for k, v in result_series_doc(solo.result).items()
        }
        if not _same_cell(first[int(index)], result_metrics(solo.result),
                          series):
            ledger.fail(f"campaign 0 cell {index}", "lane differs from solo")


def _same_cell(stored, metrics: dict, series: dict) -> bool:
    """Bit-identity of one persisted cell with a metrics/series pair."""
    mine = stored.metrics()
    if sorted(mine) != sorted(metrics) or sorted(stored.series) != sorted(series):
        return False
    if not all(
        mine[k] == metrics[k] or (mine[k] != mine[k] and metrics[k] != metrics[k])
        for k in mine
    ):
        return False
    return all(
        np.array_equal(stored.series[k], series[k], equal_nan=True)
        for k in series
    )


def _traced(path, sweep, spec, cache, clock, untraced_rate: float) -> dict:
    """One campaign and its repeats with the layer entry points wrapped.

    The probe timer stays off here, so no probe lands inside a span;
    the host is sampled before the campaign and around each repeat.
    """
    from spans import SpanRecorder

    tracer = SpanRecorder()
    clock.sample_now()
    with tracer.wrapped(_layer_targets()):
        r = _campaign(path, sweep, spec, cache, clock)
    clock.sample_now()
    shutil.rmtree(path, ignore_errors=True)
    traced_rate = len(r["cells"]) * CELL_S / 3600.0 / r["fresh_s"]
    scale = clock.scale(r["start"], r["fresh_end"])
    totals = tracer.totals()

    def agg(name: str, key: str) -> float:
        value = totals.get(name, {}).get(key, 0.0)
        return value / scale if key.endswith("_s") else value

    lane_steps = max(agg("batch.kernel.advance", "units"), 1.0)
    advance_s = agg("batch.kernel.advance", "total_s")
    batch_self_s = agg("batch.engine", "self_s")
    # Warmup inside the batch: plant steps and snapshot restores whose
    # enclosing span is the batched engine's run.
    engine_spans = {
        i for i, rec in enumerate(tracer.spans) if rec[0] == "batch.engine"
    }
    warmup_s = sum(
        end - start
        for name, start, end, parent, _ in tracer.spans
        if name in ("cooling.do_step", "cooling.set_fmu_state")
        and parent in engine_spans
    ) / scale
    return {
        "scheduler.tick_s": agg("scheduler.tick", "total_s"),
        "scheduler.tick_calls": agg("scheduler.tick", "calls"),
        "power.evaluate_s": agg("power.evaluate", "total_s"),
        "power.evaluate_calls": agg("power.evaluate", "calls"),
        "cooling.do_step_s": agg("cooling.do_step", "total_s"),
        "cooling.do_step_calls": agg("cooling.do_step", "calls"),
        "batch.power.evaluate_s": agg("batch.power.evaluate", "total_s"),
        "batch.power.evaluate_calls": agg("batch.power.evaluate", "calls"),
        "batch.kernel.advance_s": advance_s,
        "batch.kernel.advance_calls": agg("batch.kernel.advance", "calls"),
        "batch.kernel.us_per_lane_step": advance_s / lane_steps * 1e6,
        "batch.warmup_s": warmup_s,
        "batch.engine.self_s": batch_self_s,
        "batch.engine.self_us_per_lane_step": batch_self_s / lane_steps * 1e6,
        "campaign.store.record_s": agg("campaign.store.record", "total_s"),
        "campaign.store.record_calls": agg("campaign.store.record", "calls"),
        "trace.overhead": traced_rate / untraced_rate,
    }
