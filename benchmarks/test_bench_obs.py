"""Observability overhead bench: the BENCH_obs.json trajectory.

The telemetry plane's contract is that it is *free when detached and
nearly free when attached*: engine instrumentation folds its counters
at run boundaries, so an instrumented coupled replay must stay within
2 % of the detached wall time — and produce bit-identical numerics.
This bench measures exactly that, plus the cost of rendering the
``/metrics`` page, the :class:`~repro.obs.history.MetricsRecorder`'s
sampling overhead (a recording replay vs a merely instrumented one),
and ``/api/query`` latency — recording the cross-PR trajectory in
``benchmarks/BENCH_obs.json``.

Method: the compared variants run in interleaved rounds
(:func:`~benchmarks.conftest.interleaved_minima`: alternating order, a
``gc.collect()`` before each run) and the guard compares the
per-variant *minimum CPU time* (turbo/co-tenant noise
inflates individual rounds upward only, so the minima are the honest
pair).  The ratio guards are hardware-independent; the committed
baseline additionally bounds drift via the shared ``check_ratio``
protocol (rewritten only on first creation or under
``REPRO_BENCH_UPDATE=1``).  Both tests share the one JSON file: the
second merges its keys instead of overwriting.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from benchmarks.conftest import (
    bench_json_path,
    check_ratio,
    emit,
    interleaved_minima,
    load_baseline,
    record_trajectory,
)
from repro.core.profiling import PhaseProfiler
from repro.obs import MetricsRecorder, MetricsRegistry, use_registry
from repro.scenarios import DigitalTwin, SyntheticScenario
from repro.scenarios.artifacts import git_revision
from tests.conftest import assert_bitidentical, make_small_spec

_BENCH_JSON = bench_json_path("obs")

REPLAY_HOURS = 12.0
ROUNDS = 11
#: The tentpole acceptance envelope: instrumented CPU time may exceed
#: detached by at most this factor.
OVERHEAD_BUDGET = 1.02
#: A replay with a live 50 ms sampler thread vs one without: history
#: recording is a background concern and must stay in the noise.  50 ms
#: is already 20x the server's default 1 s interval; sub-10 ms sampling
#: measures GIL handoff, not the recorder.
RECORD_INTERVAL_S = 0.05
RECORDING_BUDGET = 1.10


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


def _replay(spec, *, registry=None, profiler=None):
    """One coupled replay; returns ``(cpu_s, result)``."""
    twin = DigitalTwin(spec)
    scenario = SyntheticScenario(
        duration_s=REPLAY_HOURS * 3600.0, seed=0, with_cooling=True
    )
    plan = scenario.plan(twin)
    engine = scenario.build_engine(twin, plan)
    engine.profiler = profiler
    c0 = time.process_time()
    if registry is not None:
        with use_registry(registry):
            result = engine.run(
                plan.jobs, plan.duration_s, wetbulb=plan.wetbulb
            )
    else:
        result = engine.run(plan.jobs, plan.duration_s, wetbulb=plan.wetbulb)
    return time.process_time() - c0, result


@pytest.mark.slow
def test_bench_obs_overhead(spec):
    baseline = load_baseline(_BENCH_JSON)

    registry = MetricsRegistry()
    results = {}

    def detached():
        cpu, results["detached"] = _replay(spec)
        return cpu

    def instrumented():
        cpu, results["instrumented"] = _replay(
            spec, registry=registry, profiler=PhaseProfiler()
        )
        return cpu

    cpu = interleaved_minima(
        {"detached": detached, "instrumented": instrumented}, ROUNDS
    )
    detached_result = results["detached"]
    instrumented_result = results["instrumented"]

    # Instrumentation must never change the numerics.
    assert_bitidentical(
        instrumented_result, detached_result, label="instrumented replay"
    )
    steps = registry.value("repro_engine_steps_total")
    assert registry.value("repro_engine_runs_total") == ROUNDS
    assert steps == ROUNDS * len(detached_result.times_s)

    ratio = cpu["instrumented"] / cpu["detached"]
    assert ratio <= OVERHEAD_BUDGET, (
        f"instrumented replay {ratio:.4f}x detached "
        f"(budget {OVERHEAD_BUDGET}x)"
    )
    check_ratio(
        baseline, "instrumented_ratio", ratio, higher_is_better=False
    )

    # /metrics render cost on the populated registry (per call, min of
    # a tight loop: the page is rendered per Prometheus scrape).
    text = registry.render()
    assert "repro_engine_steps_total" in text
    render_s = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(50):
            registry.render()
        render_s.append((time.perf_counter() - t0) / 50)
    render_us = min(render_s) * 1e6
    # Hardware-dependent, so the budget is loose: a >3x jump against
    # the committed figure still means the render path went quadratic.
    check_ratio(
        baseline,
        "metrics_render_us",
        render_us,
        higher_is_better=False,
        budget=3.0,
    )

    doc = {
        "system": spec.name,
        "replay_hours": REPLAY_HOURS,
        "rounds": ROUNDS,
        "detached_cpu_s": round(cpu["detached"], 3),
        "instrumented_cpu_s": round(cpu["instrumented"], 3),
        "instrumented_ratio": round(ratio, 4),
        "overhead_budget": OVERHEAD_BUDGET,
        "steps_per_run": int(steps // ROUNDS),
        "metrics_render_us": round(render_us, 1),
        "metrics_page_lines": len(text.splitlines()),
        "git_rev": git_revision(),
    }
    record_trajectory(_BENCH_JSON, doc, baseline)
    emit(
        "Observability overhead (instrumented vs detached coupled replay)",
        "\n".join(f"{k}: {v}" for k, v in doc.items()),
    )


def _merge_trajectory(path: str, new_keys: dict, baseline: dict | None):
    """Merge this test's keys into the shared trajectory file.

    Writes when seeding (baseline absent or missing any of these keys)
    or under ``REPRO_BENCH_UPDATE=1`` — same ratchet rules as
    :func:`record_trajectory`, scoped to this test's keys so the two
    tests sharing BENCH_obs.json never clobber each other.
    """
    current = load_baseline(path)
    seeding = current is None or any(k not in current for k in new_keys)
    if seeding or os.environ.get("REPRO_BENCH_UPDATE") == "1":
        doc = dict(current or {})
        doc.update(new_keys)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


@pytest.mark.slow
def test_bench_history_recording_and_query(spec):
    baseline = load_baseline(_BENCH_JSON)

    results = {}

    def instrumented():
        cpu, results["instrumented"] = _replay(
            spec, registry=MetricsRegistry()
        )
        return cpu

    def recording():
        reg = MetricsRegistry()
        rec = MetricsRecorder(reg, interval_s=RECORD_INTERVAL_S)
        stop = threading.Event()

        def _sampler():
            while not stop.is_set():
                rec.sample()
                stop.wait(RECORD_INTERVAL_S)

        sampler = threading.Thread(target=_sampler, daemon=True)
        sampler.start()
        try:
            cpu, results["recording"] = _replay(spec, registry=reg)
        finally:
            stop.set()
            sampler.join()
        # Engine counters fold at the run boundary: one more sample
        # catches the folded totals in the history.
        rec.sample()
        results["recorder"], results["registry"] = rec, reg
        return cpu

    cpu = interleaved_minima(
        {"instrumented": instrumented, "recording": recording}, ROUNDS
    )
    instrumented_result = results["instrumented"]
    recording_result = results["recording"]
    recorder, registry = results["recorder"], results["registry"]

    # The recorder only reads the registry: recording a replay must
    # not change a single bit of its numerics.
    assert_bitidentical(
        recording_result, instrumented_result, label="recording replay"
    )
    assert recorder.samples_total > 0
    assert "repro_engine_steps_total" in recorder.series_names()

    ratio = cpu["recording"] / cpu["instrumented"]
    assert ratio <= RECORDING_BUDGET, (
        f"recording replay {ratio:.4f}x instrumented "
        f"(budget {RECORDING_BUDGET}x)"
    )
    check_ratio(baseline, "recording_ratio", ratio, higher_is_better=False)

    # Steady-state per-sample and query cost on a fresh recorder over
    # the populated registry, driven by purely virtual timestamps so
    # the figures are deterministic in shape.
    bench_rec = MetricsRecorder(registry, interval_s=1.0)
    now = 1_000_000.0
    for i in range(300):  # pre-fill a 5-minute window at 1 s cadence
        bench_rec.sample(now=now + i)
    t0 = time.perf_counter()
    for i in range(200):
        bench_rec.sample(now=now + 300.0 + i)
    sample_us = (time.perf_counter() - t0) / 200 * 1e6

    # /api/query latency: a 5-minute window at 1 s resolution, both a
    # counter-style and a gauge-style aggregation.
    end = now + 500.0
    query_s = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(50):
            recorder_doc = bench_rec.query(
                "repro_engine_steps_total",
                start=end - 300.0, end=end, step=1.0, agg="rate", now=end,
            )
            bench_rec.query(
                "repro_engine_power_evals_total",
                start=end - 300.0, end=end, step=1.0, agg="last", now=end,
            )
        query_s.append((time.perf_counter() - t0) / 100)
    query_us = min(query_s) * 1e6
    assert len(recorder_doc["points"]) == 300
    doc = bench_rec.query(
        "repro_engine_steps_total",
        start=end - 300.0, end=end, step=1.0, agg="last", now=end,
    )
    assert doc["points"] and any(v is not None for _, v in doc["points"])
    # Hardware-dependent latencies get the same loose 3x drift bound as
    # the /metrics render figure.
    check_ratio(
        baseline, "history_sample_us", sample_us,
        higher_is_better=False, budget=3.0,
    )
    check_ratio(
        baseline, "api_query_us", query_us,
        higher_is_better=False, budget=3.0,
    )

    new_keys = {
        "recording_ratio": round(ratio, 4),
        "recording_budget": RECORDING_BUDGET,
        "record_interval_s": RECORD_INTERVAL_S,
        "history_series": len(recorder.series_names()),
        "history_sample_us": round(sample_us, 1),
        "api_query_us": round(query_us, 1),
    }
    _merge_trajectory(_BENCH_JSON, new_keys, baseline)
    emit(
        "Telemetry history overhead (recording vs instrumented replay)",
        "\n".join(f"{k}: {v}" for k, v in new_keys.items()),
    )
