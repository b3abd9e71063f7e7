"""The metric catalogue: every metric this repo may register.

One table, one source of truth.  :mod:`repro.obs.registry` consults it
to fill in help text, label names, kinds, and histogram buckets when an
instrumentation site registers a metric by name, and the tier-1 lint
test (``tests/test_obs_docs.py``) asserts both directions:

- every ``repro_*`` metric-name literal in ``src/repro/`` is listed
  here (no anonymous metrics), and
- every catalogued name appears in ``docs/observability.md`` (no
  undocumented metrics).

Names follow Prometheus conventions: ``repro_<layer>_<what>[_total]``
with ``_total`` reserved for counters and base units (seconds) spelled
out.
"""

from __future__ import annotations

#: Default histogram buckets (seconds) for job wall times: sub-second
#: synthetic cells through multi-minute coupled replays.
JOB_SECONDS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: name -> {kind, help, labels?, buckets?}
METRICS: dict[str, dict] = {
    # -- engine (process-global registry) ---------------------------------
    "repro_engine_runs_total": {
        "kind": "counter",
        "help": "Completed RapsEngine runs (any scenario, any caller).",
    },
    "repro_engine_steps_total": {
        "kind": "counter",
        "help": "Simulation quanta stepped by RapsEngine.iter_steps.",
    },
    "repro_engine_power_evals_total": {
        "kind": "counter",
        "help": "Full vectorized power-pipeline evaluations.",
    },
    "repro_engine_power_reuses_total": {
        "kind": "counter",
        "help": "Power evaluations skipped by change detection.",
    },
    "repro_engine_phase_seconds_total": {
        "kind": "counter",
        "help": "Wall seconds per engine phase (folded from an attached "
                "PhaseProfiler at end of run; a dotted phase such as "
                "cooling.advance is a sub-phase inside its parent).",
        "labels": ("phase",),
    },
    # -- batched engine ---------------------------------------------------
    "repro_batch_runs_total": {
        "kind": "counter",
        "help": "Completed BatchedEngine sweeps.",
    },
    "repro_batch_lane_steps_total": {
        "kind": "counter",
        "help": "Active lane-steps executed across batched quanta.",
    },
    "repro_batch_padded_lane_steps_total": {
        "kind": "counter",
        "help": "Padded (idle) lane-steps: allocated lanes minus active "
                "lanes, summed over quanta — the vectorization waste.",
    },
    "repro_batch_shared_lanes_total": {
        "kind": "counter",
        "help": "Lanes that followed another lane's electrical run "
                "(schedule and power computed once for both).",
    },
    "repro_batch_lanes_active": {
        "kind": "gauge",
        "help": "Lanes still active in the most recent batched quantum.",
    },
    # -- campaigns / stress suites ---------------------------------------
    "repro_campaign_cells_done_total": {
        "kind": "counter",
        "help": "Campaign cells simulated to completion.",
    },
    "repro_campaign_cells_skipped_total": {
        "kind": "counter",
        "help": "Campaign cells skipped because the store already held "
                "their results (resume).",
    },
    "repro_stress_cells_invalid_total": {
        "kind": "counter",
        "help": "Stress-suite cells whose validation failed.",
    },
    # -- service store ----------------------------------------------------
    "repro_store_appends_total": {
        "kind": "counter",
        "help": "Results appended to the ServiceStore.",
    },
    "repro_store_replays_total": {
        "kind": "counter",
        "help": "Step streams replayed from the ServiceStore by key.",
    },
    # -- twin service -----------------------------------------------------
    "repro_service_jobs_submitted_total": {
        "kind": "counter",
        "help": "Jobs created by POST /jobs (sweeps count per cell).",
    },
    "repro_service_jobs_finished_total": {
        "kind": "counter",
        "help": "Jobs reaching a terminal state, by state.",
        "labels": ("state",),
    },
    "repro_service_jobs_running": {
        "kind": "gauge",
        "help": "Jobs currently running on workers or batch lanes.",
    },
    "repro_service_queue_depth": {
        "kind": "gauge",
        "help": "Jobs waiting in the work-stealing queue.",
    },
    "repro_service_queue_steals_total": {
        "kind": "counter",
        "help": "Cross-backlog steals by idle workers.",
    },
    "repro_service_workers_alive": {
        "kind": "gauge",
        "help": "Worker processes currently alive.",
    },
    "repro_service_worker_crashes_total": {
        "kind": "counter",
        "help": "Worker process exits outside orderly shutdown.",
    },
    "repro_service_worker_respawns_total": {
        "kind": "counter",
        "help": "Workers respawned after a crash (cap-limited).",
    },
    "repro_service_persist_errors_total": {
        "kind": "counter",
        "help": "Failed store writes (the result stays in the memory "
                "cache), by site: open, append, record, checkpoint.",
        "labels": ("site",),
    },
    "repro_service_requeues_total": {
        "kind": "counter",
        "help": "In-flight jobs requeued after their worker died.",
    },
    "repro_service_cache_hits_total": {
        "kind": "counter",
        "help": "Submissions served from the content-addressed result "
                "cache without simulating.",
    },
    "repro_service_warm_hits_total": {
        "kind": "counter",
        "help": "Executed jobs that reused a warm cooling-plant state.",
    },
    "repro_service_warm_misses_total": {
        "kind": "counter",
        "help": "Executed jobs that paid the full cooling warmup.",
    },
    "repro_service_job_seconds": {
        "kind": "histogram",
        "help": "Per-job wall time as measured by the worker (cached "
                "replays excluded).",
        "buckets": JOB_SECONDS_BUCKETS,
    },
    "repro_service_stream_clients": {
        "kind": "gauge",
        "help": "Currently connected step-stream watchers (NDJSON + ws).",
    },
    "repro_service_steps_streamed_total": {
        "kind": "counter",
        "help": "Step records received from workers and batch lanes.",
    },
    "repro_service_loop_lag_seconds": {
        "kind": "gauge",
        "help": "Event-loop scheduling lag measured by the heartbeat "
                "probe (0 when responsive).",
    },
    # -- service resilience ------------------------------------------------
    "repro_retries_total": {
        "kind": "counter",
        "help": "Client-side retries of idempotent service operations "
                "(TwinClient RetryPolicy), by operation.",
        "labels": ("op",),
    },
    "repro_admission_rejected_total": {
        "kind": "counter",
        "help": "Submissions rejected by admission control (429/503 + "
                "Retry-After), by reason: queue_full, client_inflight, "
                "draining.",
        "labels": ("reason",),
    },
    "repro_breaker_state": {
        "kind": "gauge",
        "help": "Worker-respawn circuit breaker state: 0 closed, "
                "1 half-open, 2 open.",
    },
    "repro_jobs_timeout_total": {
        "kind": "counter",
        "help": "Jobs cancelled because their deadline_s expired.",
    },
    "repro_service_draining": {
        "kind": "gauge",
        "help": "1 while the server is draining (admission closed), "
                "else 0.",
    },
    "repro_chaos_injected_total": {
        "kind": "counter",
        "help": "Faults injected by an enabled ChaosPolicy, by site.",
        "labels": ("site",),
    },
    "repro_stream_resumes_total": {
        "kind": "counter",
        "help": "Watch streams resumed mid-job via ?from_seq=.",
    },
    # -- history / alerting ------------------------------------------------
    "repro_history_samples_total": {
        "kind": "counter",
        "help": "Registry snapshots taken by the MetricsRecorder.",
    },
    "repro_alerts_firing": {
        "kind": "gauge",
        "help": "Alert rules currently in the firing state.",
    },
}


def describe(name: str) -> dict:
    """Catalogue entry for ``name`` (empty dict when uncatalogued)."""
    return METRICS.get(name, {})


__all__ = ["METRICS", "JOB_SECONDS_BUCKETS", "describe"]
