"""``replay-coupled`` and ``replay-uncoupled``: telemetry-day replays.

Each replay is a call of :func:`repro.core.replay.replay_dataset`: one
synthesized Frontier telemetry day, jobs dispatched at their recorded
starts, weather from the dataset, a fresh :class:`RapsEngine` per
replay, and (coupled) the cooling FMU stepped every 15 s after its
1800 s warmup.

The timed window cycles through the days (one for coupled, three for
uncoupled) until ``--seconds`` of replay time have passed and every day
ran at least once and one day twice.  A repeat replays a day already
replayed in this run: the replay path keeps no result cache, so a
repeat costs a full replay, and ``cached_job_latency_p50_s`` says so.
Each result is checked as it arrives, between timed replays, and only
the first result of each day is kept, so the memory held does not grow
with the number of replays that fit in the window.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter

from measure import (
    DAY_S,
    PINNED_DAY,
    SETUP_REPEATS,
    Ledger,
    RunResult,
    invariant_failures,
    median,
    peak_rss_mb,
    quantile,
    result_differences,
)

#: Steps in the first simulated hour (the reference-backend check).
FIRST_HOUR_STEPS = 240

#: Replays cut short at their first step after each timed replay;
#: ``first_step_p50_s`` is taken over all of them.  A first step takes
#: a few milliseconds, and the host's speed changes on a scale of tenths
#: of a second, so the samples are spread over the whole window, as the
#: replays are.
FIRST_STEPS_PER_REPLAY = 20

#: Replay and campaign timings are probe-normalised (see hostclock).
NORMALISED = True


class _FirstStep:
    """``progress`` callback remembering when the first step arrived.

    With ``stop`` set it ends the replay there by raising :class:`_Stop`.
    """

    def __init__(self, stop: bool = False) -> None:
        self.at: float | None = None
        self.stop = stop

    def __call__(self, step) -> None:
        if self.at is None:
            self.at = perf_counter()
            if self.stop:
                raise _Stop


class _Stop(Exception):
    pass


def _layer_targets():
    from repro.cooling.fmu import CoolingFMU
    from repro.power.system import SystemPowerModel
    from repro.scheduler.engine import SchedulerEngine

    return [
        (SchedulerEngine, "tick", "scheduler.tick"),
        (SystemPowerModel, "evaluate", "power.evaluate"),
        (CoolingFMU, "do_step", "cooling.do_step"),
    ]


def _check(ledger, k, day, result, first_of_day, coupled) -> None:
    """Invariants on one replay, and a repeat against the day's first."""
    op = f"replay {k} (day {day})"
    for why in invariant_failures(result, coupled):
        ledger.fail(op, why)
    if day not in first_of_day:
        first_of_day[day] = result
        return
    diffs = result_differences(result, first_of_day[day])
    if diffs:
        ledger.fail(op, f"repeat differs from first replay: {diffs}")


def run(args, clock, import_s: float, workdir) -> RunResult:
    from repro.config.frontier import frontier_spec
    from repro.core.engine import RapsEngine
    from repro.core.replay import replay_dataset
    from repro.telemetry.synthesis import (
        SyntheticTelemetryGenerator,
        WorkloadDayParams,
    )

    coupled = args.workload == "replay-coupled"
    days = 1 if coupled else 3

    # -- set-up: spec load and engine construction, repeated ------------------
    build_s = []
    with clock:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            spec = frontier_spec()
            RapsEngine(spec, with_cooling=coupled, honor_recorded_starts=True)
            build_s.append(clock.seconds(t0, perf_counter()))
    setup_s = import_s + median(build_s)

    # -- inputs (not timed) ----------------------------------------------------
    generator = SyntheticTelemetryGenerator(spec, seed=args.seed)
    params = WorkloadDayParams(**PINNED_DAY)
    datasets = [generator.day(d, params=params) for d in range(days)]

    # -- timed window: replays, each checked between timed calls -------------
    ledger = Ledger()
    first_of_day: dict = {}
    latencies: list[float] = []
    first_steps: list[float] = []
    timed_raw = 0.0
    with clock:
        while True:
            k = len(latencies)
            day = k % days
            ledger.attempt()
            t0 = perf_counter()
            result = replay_dataset(spec, datasets[day], DAY_S,
                                    with_cooling=coupled)
            t1 = perf_counter()
            timed_raw += t1 - t0
            latencies.append(clock.seconds(t0, t1))
            _check(ledger, k, day, result, first_of_day, coupled)
            del result
            # First steps: each sample starts from a collected heap, so
            # the garbage of the replays before it is not collected
            # inside it, and is bracketed by host samples of its own.
            for _ in range(FIRST_STEPS_PER_REPLAY):
                first = _FirstStep(stop=True)
                gc.collect()
                with clock.bracket():
                    t0 = perf_counter()
                    try:
                        replay_dataset(spec,
                                       datasets[len(first_steps) % days],
                                       DAY_S, with_cooling=coupled,
                                       progress=first)
                    except _Stop:
                        pass
                first_steps.append(clock.seconds(t0, first.at))
            if timed_raw >= args.seconds and len(latencies) > days:
                break
    peak_mb = peak_rss_mb()
    rate = 24.0 * len(latencies) / sum(latencies)

    # -- correctness (not timed) -----------------------------------------------
    if coupled:
        # The fused plant kernel against the reference component graph,
        # the oracle it is proven against, over the first hour.
        from repro.scheduler.workloads import jobs_from_dataset

        reference = RapsEngine(
            spec, honor_recorded_starts=True, cooling_backend="reference"
        ).run(
            jobs_from_dataset(datasets[0]),
            FIRST_HOUR_STEPS * 15.0,
            wetbulb=datasets[0]["wetbulb_temperature"],
        )
        diffs = result_differences(
            first_of_day[0], reference, rows=FIRST_HOUR_STEPS
        )
        if diffs:
            ledger.fail("replay 0 (day 0)", f"differs from reference: {diffs}")

    e2e = {
        "setup_s": setup_s,
        "sim_hours_per_s": rate,
        "job_latency_p50_s": quantile(latencies, 0.5),
        "job_latency_p90_s": quantile(latencies, 0.9),
        "first_step_p50_s": quantile(first_steps, 0.5),
        "cached_job_latency_p50_s": quantile(latencies[days:], 0.5),
        "peak_rss_mb": peak_mb,
    }
    # The load regime of this seed's days, so a seed that drew another
    # regime shows in every run's log.
    regime = {
        "regime.jobs_per_day": sum(len(ds.jobs) for ds in datasets) / days,
        "regime.mean_mw": sum(
            first_of_day[d].mean_power_w for d in range(days)
        ) / days / 1e6,
    }
    print(
        f"{args.workload} seed {args.seed}: "
        f"{regime['regime.jobs_per_day']:.0f} jobs/day, "
        f"{regime['regime.mean_mw']:.2f} MW mean",
        file=sys.stderr,
    )
    layers = {}
    if args.trace:
        layers = {**regime, **_traced(spec, datasets, coupled, clock, rate)}
    return RunResult(
        e2e=e2e,
        layers=layers,
        attempted=ledger.attempted,
        failed=len(ledger.failed),
        problems=ledger.problems,
    )


def _traced(spec, datasets, coupled: bool, clock, untraced_rate: float) -> dict:
    """Replay every day once with the layer entry points wrapped.

    The engine is built here rather than through ``replay_dataset`` so
    its change-detection counters stay readable.  The probe timer stays
    off, so no probe lands inside a span; the host is sampled before and
    after instead.
    """
    from repro.core.engine import RapsEngine
    from repro.scheduler.workloads import jobs_from_dataset
    from spans import SpanRecorder

    tracer = SpanRecorder()
    first_at: dict[int, float] = {}
    evals = reuses = 0
    clock.sample_now()
    t0 = perf_counter()
    with tracer.wrapped(_layer_targets()):
        for dataset in datasets:
            first = _FirstStep()
            with tracer.span("replay"):
                index = len(tracer.spans) - 1
                engine = RapsEngine(
                    spec, with_cooling=coupled, honor_recorded_starts=True
                )
                engine.run(
                    jobs_from_dataset(dataset),
                    DAY_S,
                    wetbulb=dataset["wetbulb_temperature"],
                    progress=first,
                )
            first_at[index] = first.at
            evals += engine.power_evals
            reuses += engine.power_reuses
    t1 = perf_counter()
    clock.sample_now()
    scale = clock.scale(t0, t1)
    totals = tracer.totals()

    def seconds(name: str, key: str = "total_s") -> float:
        return totals.get(name, {}).get(key, 0.0) / scale

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    warmup_s = sum(
        end - start
        for name, start, end, parent, _ in tracer.spans
        if name == "cooling.do_step"
        and parent in first_at
        and start < first_at[parent]
    )
    return {
        "scheduler.tick_s": seconds("scheduler.tick"),
        "scheduler.tick_calls": calls("scheduler.tick"),
        "power.evaluate_s": seconds("power.evaluate"),
        "power.evaluate_calls": calls("power.evaluate"),
        "power.reuse_ratio": reuses / max(evals + reuses, 1),
        "cooling.do_step_s": seconds("cooling.do_step"),
        "cooling.do_step_calls": calls("cooling.do_step"),
        "cooling.warmup_s": warmup_s / scale,
        "engine.self_s": seconds("replay", "self_s"),
        "trace.overhead": (
            24.0 * len(datasets) / clock.seconds(t0, t1) / untraced_rate
        ),
    }
