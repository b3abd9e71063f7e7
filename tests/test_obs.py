"""Unit + integration tests of the observability plane (repro.obs).

Covers the registry primitives (counters, gauges, histograms, labels,
Prometheus rendering, cardinality bounds), the tracer + flight
recorder, PhaseProfiler re-entrancy, and the engine/batch/campaign/
store instrumentation — including the promise that instrumenting a run
never changes its numerics.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.engine import BatchedEngine
from repro.core.profiling import PhaseProfiler
from repro.exceptions import ExaDigiTError, ScenarioError
from repro.obs import (
    METRICS,
    DEFAULT_BUCKETS,
    FlightRecorder,
    JsonlSpanSink,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    OVERFLOW_LABEL,
    Tracer,
    describe,
    get_registry,
    set_registry,
    use_registry,
)
from repro.scenarios import Campaign, DigitalTwin, SyntheticScenario
from repro.scenarios.artifacts import result_to_cell_doc, spec_sha256
from repro.service.protocol import job_key
from repro.service.store import ServiceStore
from repro.viz.export import step_record

from tests.conftest import assert_bitidentical, make_small_spec


# -- registry primitives -------------------------------------------------------


def test_counter_gauge_histogram_math():
    reg = MetricsRegistry()
    c = reg.counter("repro_engine_steps_total")
    c.inc()
    c.inc(41)
    assert reg.value("repro_engine_steps_total") == 42

    g = reg.gauge("repro_batch_lanes_active")
    g.set(5)
    g.inc(2)
    g.dec()
    assert reg.value("repro_batch_lanes_active") == 6

    h = reg.histogram("repro_service_job_seconds")
    for v in (0.01, 0.2, 7.0, 9999.0):
        h.observe(v)
    child = h.labels() if h.labelnames else h._default()
    assert child.count == 4
    assert child.sum == pytest.approx(0.01 + 0.2 + 7.0 + 9999.0)
    # Cumulative counts are monotone and end at the total count.
    cum = child.cumulative()
    assert cum[-1][0] == float("inf") and cum[-1][1] == 4
    assert all(a[1] <= b[1] for a, b in zip(cum, cum[1:]))


def test_labeled_family_and_value_lookup():
    reg = MetricsRegistry()
    fam = reg.counter("repro_service_jobs_finished_total")
    fam.labels(state="done").inc(3)
    fam.labels(state="failed").inc()
    assert reg.value("repro_service_jobs_finished_total", state="done") == 3
    assert reg.value("repro_service_jobs_finished_total", state="failed") == 1
    # Unlabeled access to a labeled family is an error, not silence.
    with pytest.raises(ExaDigiTError):
        fam.inc()
    # Wrong label names are an error too.
    with pytest.raises(ExaDigiTError):
        fam.labels(phase="done")


def test_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("repro_engine_steps_total")
    with pytest.raises(ExaDigiTError):
        reg.gauge("repro_engine_steps_total")
    # Catalogued kind is enforced even on first registration.
    with pytest.raises(ExaDigiTError):
        reg.gauge("repro_engine_runs_total")


def test_prometheus_render_golden():
    reg = MetricsRegistry()
    reg.counter("repro_engine_steps_total").inc(7)
    reg.gauge("repro_service_queue_depth").set(2)
    fam = reg.counter("repro_engine_phase_seconds_total")
    fam.labels(phase="power").inc(1.5)
    h = reg.histogram(
        "repro_service_job_seconds", buckets=(0.1, 1.0)
    )
    h.observe(0.05)
    h.observe(5.0)
    text = reg.render()
    expected = "\n".join(
        [
            "# HELP repro_engine_phase_seconds_total "
            + METRICS["repro_engine_phase_seconds_total"]["help"],
            "# TYPE repro_engine_phase_seconds_total counter",
            'repro_engine_phase_seconds_total{phase="power"} 1.5',
            "# HELP repro_engine_steps_total "
            + METRICS["repro_engine_steps_total"]["help"],
            "# TYPE repro_engine_steps_total counter",
            "repro_engine_steps_total 7",
            "# HELP repro_service_job_seconds "
            + METRICS["repro_service_job_seconds"]["help"],
            "# TYPE repro_service_job_seconds histogram",
            'repro_service_job_seconds_bucket{le="0.1"} 1',
            'repro_service_job_seconds_bucket{le="1"} 1',
            'repro_service_job_seconds_bucket{le="+Inf"} 2',
            "repro_service_job_seconds_sum 5.05",
            "repro_service_job_seconds_count 2",
            "# HELP repro_service_queue_depth "
            + METRICS["repro_service_queue_depth"]["help"],
            "# TYPE repro_service_queue_depth gauge",
            "repro_service_queue_depth 2",
        ]
    )
    assert text == expected + "\n"


def test_snapshot_reset_roundtrip():
    reg = MetricsRegistry()
    reg.counter("repro_engine_steps_total").inc(3)
    reg.histogram("repro_service_job_seconds").observe(0.2)
    doc = reg.snapshot()
    json.dumps(doc)  # must be JSON-compatible
    assert doc["repro_engine_steps_total"]["samples"][0]["value"] == 3
    hist = doc["repro_service_job_seconds"]["samples"][0]
    assert hist["count"] == 1 and hist["buckets"][-1][0] == "+Inf"
    reg.reset()
    assert reg.value("repro_engine_steps_total") == 0
    assert reg.snapshot()["repro_service_job_seconds"]["samples"][0]["count"] == 0


def test_label_cardinality_cap():
    reg = MetricsRegistry(max_label_sets=4)
    fam = reg.counter("repro_service_jobs_finished_total")
    for i in range(10):
        fam.labels(state=f"s{i}").inc()
    # Bounded at cap + 1 children (the overflow bucket), drops counted.
    assert len(fam._children) == 5
    assert fam.dropped_label_sets == 6
    assert fam.labels(state="s9") is fam.labels(state="s8")
    assert fam.get(state=OVERFLOW_LABEL) == 6


def test_fn_backed_gauge_reads_live():
    state = {"depth": 0}
    reg = MetricsRegistry()
    reg.gauge("repro_service_queue_depth", fn=lambda: state["depth"])
    state["depth"] = 9
    assert reg.value("repro_service_queue_depth") == 9
    assert "repro_service_queue_depth 9" in reg.render()


def test_null_registry_is_inert_and_global_default():
    assert isinstance(get_registry(), NullRegistry)
    assert get_registry() is NULL_REGISTRY
    assert not NULL_REGISTRY.enabled
    metric = NULL_REGISTRY.counter("repro_engine_steps_total")
    metric.inc()
    metric.labels(state="x").observe(1.0)
    assert metric.get() == 0.0
    assert NULL_REGISTRY.render() == ""
    assert NULL_REGISTRY.snapshot() == {}


def test_use_registry_scopes_and_restores():
    before = get_registry()
    with use_registry(MetricsRegistry()) as reg:
        assert get_registry() is reg
        get_registry().counter("repro_engine_runs_total").inc()
        assert reg.value("repro_engine_runs_total") == 1
    assert get_registry() is before
    # set_registry returns the previous registry for manual nesting.
    mine = MetricsRegistry()
    prev = set_registry(mine)
    try:
        assert get_registry() is mine
    finally:
        set_registry(prev)


def test_catalog_entries_are_well_formed():
    assert len(METRICS) >= 20
    for name, entry in METRICS.items():
        assert name.startswith("repro_")
        assert entry["kind"] in ("counter", "gauge", "histogram")
        assert entry["help"]
        assert describe(name) is entry
    # Histogram entries carry their buckets.
    assert METRICS["repro_service_job_seconds"]["buckets"]
    assert tuple(DEFAULT_BUCKETS) == tuple(sorted(DEFAULT_BUCKETS))


# -- tracer + flight recorder --------------------------------------------------


def test_tracer_spans_nest_and_sink_jsonl(tmp_path):
    sink_path = tmp_path / "spans.jsonl"
    tracer = Tracer(JsonlSpanSink(sink_path))
    with tracer.span("outer", job="j1") as outer:
        tracer.event("ping", n=1)
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    docs = [
        json.loads(line)
        for line in sink_path.read_text().splitlines()
    ]
    kinds = [(d["kind"], d["name"]) for d in docs]
    assert kinds == [
        ("span-start", "outer"),
        ("event", "ping"),
        ("span-start", "inner"),
        ("span-end", "inner"),
        ("span-end", "outer"),
    ]
    ends = [d for d in docs if d["kind"] == "span-end"]
    assert all(d["status"] == "ok" and d["dur_s"] >= 0 for d in ends)
    assert docs[0]["job"] == "j1"
    assert all("t_mono" in d and "t_wall" in d for d in docs)


def test_tracer_manual_begin_end_idempotent():
    rec = FlightRecorder(capacity=16)
    tracer = Tracer(rec)
    span = tracer.begin("job", job_id="j7")
    tracer.end(span, status="failed", error="boom")
    tracer.end(span)  # second end is a no-op
    ends = [e for e in rec.events() if e["kind"] == "span-end"]
    assert len(ends) == 1
    assert ends[0]["status"] == "failed" and ends[0]["error"] == "boom"


def test_flight_recorder_ring_is_bounded(tmp_path):
    rec = FlightRecorder(capacity=8)
    tracer = Tracer(rec)
    for i in range(50):
        tracer.event("tick", i=i)
    assert len(rec) == 8
    assert rec.total_emitted == 50
    kept = [e["i"] for e in rec.events()]
    assert kept == list(range(42, 50))  # oldest evicted first
    out = tmp_path / "flight" / "dump.jsonl"
    rec.dump(out)
    assert len(out.read_text().splitlines()) == 8
    rec.clear()
    assert len(rec) == 0


# -- PhaseProfiler re-entrancy -------------------------------------------------


def test_phase_profiler_reentrant_runs():
    prof = PhaseProfiler()
    prof.begin_run()
    prof.add("power", 0.25)
    prof.add("cooling", 0.5)
    prof.end_run(100, power_evals=60, power_reuses=40)
    prof.begin_run()
    prof.add("power", 0.75)
    prof.end_run(50)  # no power counters: surrogate-fidelity style run
    assert len(prof.runs) == 2
    assert prof.last_run is prof.runs[-1]
    # Totals keep accumulating (historical contract)...
    assert prof.steps == 150
    assert prof.totals["power"] == pytest.approx(1.0)
    assert prof.as_dict()["runs"] == 2
    # ...while runs record per-run deltas.
    assert prof.runs[0]["phases"]["power"] == pytest.approx(0.25)
    assert prof.runs[1]["phases"]["power"] == pytest.approx(0.75)
    assert "cooling" not in prof.runs[1]["phases"]
    assert prof.runs[0]["power_evals"] == 60
    assert prof.runs[1]["power_evals"] == 0


def test_phase_profiler_end_run_without_begin():
    prof = PhaseProfiler()
    prof.end_run(10)
    assert prof.runs[0]["wall_s"] == 0.0
    assert prof.steps == 10


# -- instrumentation: engine, batch, campaign, store ---------------------------


SCN = SyntheticScenario(duration_s=1800.0, with_cooling=True, seed=5)


def test_engine_counters_match_engine_state(small_spec):
    twin = DigitalTwin(small_spec)
    detached = SCN.run(twin)
    with use_registry(MetricsRegistry()) as reg:
        outcome = SCN.run(DigitalTwin(small_spec))
    # Instrumentation never changes the numerics.
    assert_bitidentical(outcome, detached, label="instrumented run")
    assert reg.value("repro_engine_runs_total") == 1
    steps = reg.value("repro_engine_steps_total")
    assert steps == len(outcome.result.times_s)
    evals = reg.value("repro_engine_power_evals_total")
    reuses = reg.value("repro_engine_power_reuses_total")
    assert evals >= 1 and evals + reuses == steps


def test_batch_counters_account_for_padding(small_spec):
    scenarios = [
        SyntheticScenario(duration_s=1800.0, with_cooling=True, seed=1),
        SyntheticScenario(duration_s=900.0, with_cooling=True, seed=2),
    ]
    twin = DigitalTwin(small_spec)
    with use_registry(MetricsRegistry()) as reg:
        outcomes = BatchedEngine(scenarios, twin).run()
    assert len(outcomes) == 2
    assert reg.value("repro_batch_runs_total") == 1
    lane_steps = reg.value("repro_batch_lane_steps_total")
    padded = reg.value("repro_batch_padded_lane_steps_total")
    assert lane_steps == sum(
        len(o.result.times_s) for o in outcomes
    )
    # The 900 s lane padded against the 1800 s lane.
    assert padded > 0


def test_campaign_counters_done_and_skipped(small_spec, tmp_path):
    scenarios = [
        SyntheticScenario(duration_s=600.0, with_cooling=False, seed=s)
        for s in (1, 2, 3)
    ]
    campaign = Campaign.create(
        tmp_path / "camp", scenarios, system=small_spec
    )
    with use_registry(MetricsRegistry()) as reg:
        campaign.run(stop_after=2)
    assert reg.value("repro_campaign_cells_done_total") == 2
    assert reg.value("repro_campaign_cells_skipped_total") is None
    resumed = Campaign.open(tmp_path / "camp")
    with use_registry(MetricsRegistry()) as reg:
        resumed.run()
    assert reg.value("repro_campaign_cells_skipped_total") == 2
    assert reg.value("repro_campaign_cells_done_total") == 1
    # An unknown backend is rejected by name before the store is read.
    with use_registry(MetricsRegistry()) as reg:
        with pytest.raises(ScenarioError, match="'batchd'"):
            Campaign.open(tmp_path / "camp").run(execution="batchd")
    assert reg.value("repro_campaign_cells_skipped_total") is None


def test_store_counters_appends_and_replays(small_spec, tmp_path):
    scenario = SyntheticScenario(
        duration_s=600.0, with_cooling=False, seed=11
    )
    twin = DigitalTwin(small_spec)
    outcome = scenario.run(twin)
    steps = [step_record(s) for s in scenario.iter_steps(DigitalTwin(small_spec))]
    cell = result_to_cell_doc(0, outcome)
    cell.pop("index", None)
    key = job_key(scenario.to_dict(), spec_sha256(small_spec))

    reg = MetricsRegistry()
    store = ServiceStore(tmp_path / "store", small_spec, metrics=reg)
    assert store.lookup(key) is None
    store.record(key, scenario, cell, steps, elapsed_s=0.5)
    assert reg.value("repro_store_appends_total") == 1
    hit = store.lookup(key)
    assert hit is not None
    assert_bitidentical(hit[1], steps, label="store replay")
    assert reg.value("repro_store_replays_total") == 1
