"""`TwinServer`: the asyncio front door of the twin-as-a-service layer.

One process, one event loop, stdlib only.  Clients submit scenario-JSON
jobs over HTTP; jobs run on the work-stealing process pool
(:mod:`repro.service.workers`) and their per-quantum
:class:`~repro.core.engine.StepState` records stream back over two
transports — NDJSON chunked HTTP and RFC 6455 websocket — carrying the
exact documents :func:`repro.viz.export.step_record` produces, so a
streamed run is bit-identical to a direct ``iter_steps()`` of the same
scenario.

HTTP surface (all JSON)::

    GET  /healthz             liveness + degradable checks (pool alive,
                              store writable, event-loop lag)
    GET  /metrics             Prometheus text exposition of the server's
                              MetricsRegistry (scrape endpoint)
    GET  /statusz             full JSON ops snapshot: health, job
                              summaries, metrics, history, alerts,
                              flight recorder
    GET  /console             the single-file browser ops console
                              (docs/console.html; text/html)
    GET  /api/query           range query over recorded telemetry:
                              ?metric=&start=&end=&step=&agg=
                              (agg in last/avg/max/rate; non-positive
                              start/end are relative to now)
    GET  /alertz              alert rules, per-rule state, and recent
                              pending/firing/resolved transitions
    POST /jobs                submit {"scenario": {...}} or a bare
                              scenario document; sweeps expand into one
                              job per cell; returns {"jobs": [...]}
    GET  /jobs                all job summaries, submission order
    GET  /jobs/<id>           one job summary
    GET  /jobs/<id>/result    summary + persisted cell metrics (done jobs)
    POST /jobs/<id>/cancel    cancel a queued or running job
    GET  /jobs/<id>/stream    NDJSON: buffered + live step records, then
                              a terminal event line (``watch`` is an
                              alias; ``?from_seq=N`` resumes after the
                              last sequence number already seen)
    GET  /jobs/<id>/ws        the same stream as websocket text frames
                              (same ``?from_seq=`` resume support)
    POST /drainz              graceful drain: stop admitting (503 +
                              Retry-After), checkpoint the queue to the
                              store, finish running jobs, then stop;
                              a restart re-enqueues the checkpoint

Guarantees:

- **Disconnect-safe**: a watcher is a subscription, never an owner —
  closing a stream mid-run affects nothing; a later watcher replays
  the full buffered stream from step 0.
- **Crash-safe**: a worker death requeues its in-flight job at the
  queue head (``restart`` event to watchers, attempt-capped) and the
  worker is respawned.
- **Cached**: results are content-addressed by
  :func:`~repro.service.protocol.job_key`; a repeat submission replays
  the stored stream without simulating (in-memory, plus the persisted
  :class:`~repro.service.store.ServiceStore` when a store directory is
  configured).  Warm-plant state is cached *inside* each worker
  (:class:`~repro.service.warmcache.WarmStateCache`), so even novel
  jobs skip the 1800 s cooling warmup after a worker's first coupled
  run.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qs, urlsplit

from repro.config.schema import SystemSpec
from repro.exceptions import ExaDigiTError, ScenarioError
from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    disabled_alerts_statusz,
    load_rules,
)
from repro.obs.console import load_console_html
from repro.obs.history import MetricsRecorder, disabled_history_stats
from repro.obs.registry import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    get_registry,
    set_registry,
)
from repro.obs.trace import FlightRecorder, Tracer
from repro.scenarios.artifacts import (
    _nulled_nans,
    result_to_cell_doc,
    spec_sha256,
)
from repro.scenarios.base import Scenario
from repro.scenarios.library import BaseSweepScenario
from repro.scenarios.twin import DigitalTwin, FIDELITIES, resolve_spec
from repro.service import ws as wsproto
from repro.service.protocol import (
    JobRecord,
    JobState,
    estimate_cost,
    job_key,
    restart_event,
)
from repro.service.resilience import CircuitBreaker, resolve_chaos
from repro.service.store import LiveStepStream, ServiceStore
from repro.service.workers import WorkerPool, WorkStealingQueue
from repro.viz.export import encode_step_line

SendLine = Callable[[dict], Awaitable[None]]


class _ChaosDrop(Exception):
    """Injected mid-stream connection drop (chaos site ``conn_drop``)."""


class TwinServer:
    """Serve one digital twin to many concurrent clients.

    Parameters
    ----------
    system:
        Spec instance, JSON path, or builtin name — the one system this
        server simulates (frozen into the store's provenance).
    workers:
        Worker process count (the work-stealing pool width).
    store:
        Optional directory for the persisted
        :class:`~repro.service.store.ServiceStore` (results + step
        streams + result cache across restarts).  Without it, caching
        is in-memory only.
    fidelity:
        Default backend for scenarios that don't pin one (``"full"`` or
        ``"surrogate"``).
    surrogates:
        Optional trained bundle (object or saved path) shipped to every
        worker for surrogate-fidelity jobs.
    max_attempts:
        Dispatch attempts per job before a worker crash marks it failed.
    use_cache:
        Whether repeat submissions may be served from the result cache
        (per-request override: ``{"use_cache": false}`` in the POST).
    execution:
        ``"processes"`` (default) dispatches each cell to the worker
        pool; ``"batched"`` runs each submission's uncached cells as
        one vectorized :class:`~repro.batch.engine.BatchedEngine` sweep
        in-process (bit-identical lanes, same streaming transport).
    max_retained_jobs:
        Memory bound for a long-running server: once more than this
        many jobs are terminal, the oldest terminal jobs (and their
        buffered step streams) are evicted from the registry — their
        results live on in the store/result cache.  Watchers already
        attached to an evicted job hold the record directly and finish
        their stream normally; new lookups of its id get a 404.
    metrics:
        ``True`` (default) gives the server its own
        :class:`~repro.obs.registry.MetricsRegistry`, rendered at
        ``GET /metrics`` and snapshotted into ``GET /statusz``;
        ``False`` serves both endpoints empty at zero recording cost;
        an explicit registry instance is used as-is (shared registries
        across servers are allowed).  While a metrics-enabled server
        runs, its registry is also installed process-globally (unless
        one is already installed), so in-process engine/batch/store
        counters land on the same ``/metrics`` page.
    flight_capacity:
        Ring-buffer size of the :class:`~repro.obs.trace.FlightRecorder`
        holding the most recent job spans and worker events; the buffer
        is dumped to ``<store>/flight/`` whenever a worker dies or a
        health check flips healthy→degraded.
    history_interval:
        Sampling period (seconds) of the
        :class:`~repro.obs.history.MetricsRecorder` background task
        feeding ``GET /api/query`` and the alert engine; ``0`` (or
        ``metrics=False``) disables retention entirely.  With a store,
        samples also persist as JSONL segments under
        ``<store>/telemetry/``.
    alert_rules:
        Optional alert rules — a rules-file path, or a list of
        :class:`~repro.obs.alerts.AlertRule` / rule dicts — evaluated
        every sampling tick by an
        :class:`~repro.obs.alerts.AlertManager` (``GET /alertz``).
        Requires history to be enabled.
    chaos:
        Seed-deterministic fault injection
        (:class:`~repro.service.resilience.ChaosPolicy`, or an int seed
        for the default rates).  ``None`` (default) installs the null
        policy — every chaos site costs one attribute load.
    max_queue_depth:
        Admission bound: a submission that would be queued while the
        work-stealing queue already holds this many entries is rejected
        with ``429`` + ``Retry-After``.
    max_inflight_per_client:
        Per-client admission bound over non-terminal jobs, keyed by the
        ``X-Repro-Client`` request header (absent header = no cap).
    breaker:
        Circuit breaker over worker respawn storms (defaults to a
        fresh :class:`~repro.service.resilience.CircuitBreaker`).
    drain_grace_s:
        How long :meth:`begin_drain` waits for running jobs before
        checkpointing them too and stopping the server.
    """

    def __init__(
        self,
        system: str | Path | SystemSpec = "frontier",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store: str | Path | None = None,
        fidelity: str = "full",
        surrogates=None,
        max_attempts: int = 2,
        use_cache: bool = True,
        warm_entries: int = 8,
        start_method: str = "spawn",
        max_retained_jobs: int = 4096,
        result_cache_entries: int = 128,
        execution: str = "processes",
        metrics: bool | MetricsRegistry | NullRegistry = True,
        flight_capacity: int = 512,
        history_interval: float = 1.0,
        alert_rules: str | Path | list | None = None,
        chaos=None,
        max_queue_depth: int = 1024,
        max_inflight_per_client: int = 256,
        breaker: CircuitBreaker | None = None,
        drain_grace_s: float = 30.0,
    ) -> None:
        if fidelity not in FIDELITIES:
            raise ExaDigiTError(
                f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
            )
        if max_attempts < 1:
            raise ExaDigiTError("max_attempts must be >= 1")
        if execution not in ("processes", "batched"):
            raise ExaDigiTError(
                f"unknown execution backend {execution!r} "
                "(expected 'processes' or 'batched')"
            )
        self.execution = execution
        self.spec = resolve_spec(system)
        self.spec_sha = spec_sha256(self.spec)
        self.host = host
        self.port = port
        self.n_workers = workers
        self.fidelity = fidelity
        self.max_attempts = max_attempts
        self.use_cache_default = use_cache
        if metrics is True:
            self.metrics: MetricsRegistry | NullRegistry = MetricsRegistry()
        elif metrics is False or metrics is None:
            self.metrics = NULL_REGISTRY
        else:
            self.metrics = metrics
        self.flight = FlightRecorder(flight_capacity)
        self.tracer = Tracer(self.flight)
        self.store = (
            ServiceStore(store, self.spec, metrics=self.metrics)
            if store is not None
            else None
        )
        self.history_interval = float(history_interval or 0.0)
        self.history: MetricsRecorder | None = None
        self.alerts: AlertManager | None = None
        if self.metrics.enabled and self.history_interval > 0:
            self.history = MetricsRecorder(
                self.metrics,
                interval_s=self.history_interval,
                persist_dir=(
                    self.store.path / "telemetry"
                    if self.store is not None
                    else None
                ),
            )
        rules = self._resolve_alert_rules(alert_rules)
        if rules and self.history is None:
            raise ExaDigiTError(
                "alert rules need recorded history: enable metrics and "
                "a history_interval > 0"
            )
        if self.history is not None:
            self.alerts = AlertManager(
                rules,
                self.history,
                tracer=self.tracer,
                registry=self.metrics,
            )
        #: Last observed ok/degraded per named health check, for the
        #: healthy→degraded flight-dump trigger.
        self._check_ok: dict[str, bool] = {}
        self._history_task: asyncio.Task | None = None
        self._surrogate_doc = self._resolve_surrogates(surrogates)
        self.jobs: dict[str, JobRecord] = {}
        self._job_order: list[str] = []
        self._job_seq = 0
        self.queue = WorkStealingQueue(workers)
        self.pool = WorkerPool(
            self.spec,
            workers,
            on_event=self._on_worker_event_threadsafe,
            fidelity=fidelity,
            surrogate_doc=self._surrogate_doc,
            warm_entries=warm_entries,
            start_method=start_method,
        )
        self.max_retained_jobs = max_retained_jobs
        self.result_cache_entries = result_cache_entries
        self.warm_entries = warm_entries
        #: Lazily-built twin for ``execution="batched"`` submissions
        #: (one per server, so batched sweeps share a warm-plant cache).
        self._batch_twin: DigitalTwin | None = None
        #: Terminal job ids in completion order (memory-bound eviction).
        self._terminal_order: list[str] = []
        self.counters = {
            "executed": 0,
            "cache_hits": 0,
            "warm_hits": 0,
            "requeues": 0,
            "persist_errors": 0,
            "timeouts": 0,
            "admission_rejected": 0,
            "chaos_injected": 0,
            "stream_resumes": 0,
        }
        self.chaos = resolve_chaos(chaos)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        if max_queue_depth < 1 or max_inflight_per_client < 1:
            raise ExaDigiTError("admission bounds must be >= 1")
        self.max_queue_depth = int(max_queue_depth)
        self.max_inflight_per_client = int(max_inflight_per_client)
        self.drain_grace_s = float(drain_grace_s)
        #: Drain lifecycle: ``draining`` stops admission, ``drained``
        #: flips once the grace window closed and the checkpoint landed.
        self.draining = False
        self.drained = False
        self._drain_task: asyncio.Task | None = None
        #: Jobs parked in the drain checkpoint (excluded from dispatch,
        #: deadlines, and the drain wait — the restart re-enqueues them).
        self._checkpointed: set[str] = set()
        #: Worker indices whose next exit is an injected chaos kill —
        #: exempt from breaker and respawn-cap accounting, so chaos
        #: exercises recovery without consuming the real crash budget.
        self._chaos_kills: set[int] = set()
        #: Dead workers waiting on the breaker before respawn.
        self._pending_respawn: set[int] = set()
        #: Running jobs whose deadline expired; the worker's cancel ack
        #: finishes them as TIMEOUT instead of CANCELLED.
        self._timeout_pending: set[str] = set()
        #: Job key -> (owning job id, live step-stream writer): at most
        #: one live append stream per content key.
        self._live_streams: dict[str, tuple[str, LiveStepStream]] = {}
        #: Consecutive exits per worker without finishing a job; a
        #: worker past the cap stays down (a crash-looping environment
        #: must not fork-bomb the host).
        self._worker_respawns = [0] * workers
        self.max_worker_respawns = 3
        # key -> (cell line doc, step records); in-memory result cache,
        # LRU-bounded (the persisted store is the durable tier).
        from collections import OrderedDict

        self._result_cache: "OrderedDict[str, tuple[dict, list[dict]]]" = (
            OrderedDict()
        )
        self._cancel_requested: set[str] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._thread_error: BaseException | None = None
        #: Open job spans (job id -> Span), closed in :meth:`_finish`.
        self._spans: dict[str, Any] = {}
        self._flight_dumps = 0
        self._last_flight_dump: str | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._hb_interval_s = 0.25
        self._last_beat: float | None = None
        self._installed_global_registry = False
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Register this server's metric families (handles cached).

        With a :class:`NullRegistry` every handle is the inert null
        metric, so the hot handlers below stay branch-free.
        """
        m = self.metrics
        self._m_submitted = m.counter("repro_service_jobs_submitted_total")
        self._m_finished = m.counter("repro_service_jobs_finished_total")
        self._m_cache_hits = m.counter("repro_service_cache_hits_total")
        self._m_warm_hits = m.counter("repro_service_warm_hits_total")
        self._m_warm_misses = m.counter("repro_service_warm_misses_total")
        self._m_requeues = m.counter("repro_service_requeues_total")
        self._m_crashes = m.counter("repro_service_worker_crashes_total")
        self._m_respawns = m.counter("repro_service_worker_respawns_total")
        self._m_steps = m.counter("repro_service_steps_streamed_total")
        self._m_stream_clients = m.gauge("repro_service_stream_clients")
        self._m_job_seconds = m.histogram("repro_service_job_seconds")
        m.gauge("repro_service_queue_depth", fn=lambda: len(self.queue))
        m.counter(
            "repro_service_queue_steals_total",
            fn=lambda: self.queue.steals,
        )
        m.gauge("repro_service_workers_alive", fn=self.pool.alive_count)
        m.gauge(
            "repro_service_jobs_running",
            fn=lambda: sum(
                1
                for j in self.jobs.values()
                if j.state is JobState.RUNNING
            ),
        )
        m.gauge("repro_service_loop_lag_seconds", fn=self._loop_lag_s)
        self._m_timeouts = m.counter("repro_jobs_timeout_total")
        self._m_admission = m.counter("repro_admission_rejected_total")
        self._m_chaos = m.counter("repro_chaos_injected_total")
        self._m_resumes = m.counter("repro_stream_resumes_total")
        self._m_persist_errors = m.counter(
            "repro_service_persist_errors_total"
        )
        m.gauge("repro_breaker_state", fn=self.breaker.value)
        m.gauge(
            "repro_service_draining",
            fn=lambda: 1.0 if self.draining else 0.0,
        )

    def _persist_error(self, site: str) -> None:
        """Count a failed store write: ``/healthz`` and ``/metrics``."""
        self.counters["persist_errors"] += 1
        self._m_persist_errors.labels(site=site).inc()

    def _loop_lag_s(self) -> float:
        """Event-loop scheduling lag seen by the heartbeat probe."""
        loop, last = self._loop, self._last_beat
        if loop is None or last is None or self._heartbeat_task is None:
            return 0.0
        try:
            now = loop.time()
        except RuntimeError:  # pragma: no cover - loop torn down
            return 0.0
        return max(0.0, now - last - self._hb_interval_s)

    async def _heartbeat(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._last_beat = loop.time()
            try:
                self._tick_resilience()
            except Exception as exc:  # noqa: BLE001 - the lag probe
                # must keep beating even if a resilience check bugs out.
                self.tracer.event(
                    "resilience-tick-error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            await asyncio.sleep(self._hb_interval_s)

    def _tick_resilience(self) -> None:
        """Per-beat resilience duties: deadlines and breaker probes."""
        self._check_deadlines()
        self._probe_respawns()

    def _resolve_alert_rules(self, alert_rules) -> list[AlertRule]:
        if alert_rules is None:
            return []
        if isinstance(alert_rules, (str, Path)):
            return load_rules(alert_rules)
        return [
            entry
            if isinstance(entry, AlertRule)
            else AlertRule.from_dict(entry)
            for entry in alert_rules
        ]

    async def _history_loop(self) -> None:
        """Background sampler: record telemetry, evaluate alerts, and
        keep the degradable health probes observed even when nobody
        polls ``/healthz``."""
        while True:
            await asyncio.sleep(self.history.interval_s)
            try:
                self._history_tick()
            except Exception as exc:  # noqa: BLE001 - a recorder bug
                # must not kill the sampler; leave a trace instead.
                self.tracer.event(
                    "history-tick-error", error=f"{type(exc).__name__}: {exc}"
                )

    def _history_tick(self, now: float | None = None) -> None:
        """One sampler tick (separated from the loop for tests)."""
        self.history.sample(now)
        if self.alerts is not None:
            self.alerts.evaluate(now)
        self._health_checks()

    def _resolve_surrogates(self, surrogates) -> dict | None:
        if surrogates is None:
            return None
        from repro.fastpath.bundle import SurrogateBundle

        if isinstance(surrogates, SurrogateBundle):
            surrogates.check_spec(self.spec)
            return surrogates.to_doc()
        bundle = SurrogateBundle.load(surrogates, spec=self.spec)
        return bundle.to_doc()

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "TwinServer":
        """Bind the listening socket and spawn the worker pool."""
        self._loop = asyncio.get_running_loop()
        self.pool.start()
        self._restore_checkpoint()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat())
        if self.history is not None:
            self._history_task = asyncio.ensure_future(self._history_loop())
        # Adopt this server's registry process-wide (when none is
        # installed) so in-process engine/batch/campaign counters from
        # batched execution land on the same /metrics page.
        if self.metrics.enabled and not get_registry().enabled:
            set_registry(self.metrics)
            self._installed_global_registry = True
        return self

    async def stop(self) -> None:
        """Close the listener and stop the workers."""
        if self._installed_global_registry:
            if get_registry() is self.metrics:
                set_registry(NULL_REGISTRY)
            self._installed_global_registry = False
        if self._drain_task is not None:
            self._drain_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._drain_task
            self._drain_task = None
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat_task
            self._heartbeat_task = None
        if self._history_task is not None:
            self._history_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._history_task
            self._history_task = None
        if self.history is not None:
            self.history.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.stop)
        # Close (not abort) any live step streams: the persisted prefix
        # survives for resumable watchers of the next server life.
        for _, stream in self._live_streams.values():
            stream.close()
        self._live_streams.clear()

    async def run_forever(self, *, on_start=None) -> None:
        """`repro serve` entry: start and serve until cancelled.

        ``on_start(server)`` fires once the port is bound (banners).
        """
        await self.start()
        if on_start is not None:
            on_start(self)
        self._stop_event = asyncio.Event()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def request_stop(self) -> None:
        """Ask a running :meth:`run_forever` / thread server to exit.

        A no-op when the server already stopped on its own (a finished
        drain closes the loop before the owner calls :meth:`close`).
        """
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed

    def start_in_thread(self, timeout_s: float = 120.0) -> "TwinServer":
        """Run the server on a background thread (tests, notebooks,
        docs): returns once the port is bound; pair with :meth:`close`.
        """
        started = threading.Event()

        async def _main() -> None:
            try:
                await self.start()
                self._stop_event = asyncio.Event()
            except BaseException as exc:  # surface bind errors
                self._thread_error = exc
                started.set()
                raise
            started.set()
            try:
                await self._stop_event.wait()
            finally:
                await self.stop()

        def _runner() -> None:
            try:
                asyncio.run(_main())
            except BaseException as exc:  # pragma: no cover - debug aid
                if self._thread_error is None:
                    self._thread_error = exc

        self._thread = threading.Thread(
            target=_runner, daemon=True, name="twin-server"
        )
        self._thread.start()
        if not started.wait(timeout_s):
            raise ExaDigiTError("server did not start in time")
        if self._thread_error is not None:
            raise ExaDigiTError(
                f"server failed to start: {self._thread_error}"
            )
        return self

    def close(self, timeout_s: float = 30.0) -> None:
        """Stop a :meth:`start_in_thread` server and join its thread."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None

    def __enter__(self) -> "TwinServer":
        return self.start_in_thread()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker events ---------------------------------------------------------

    def _on_worker_event_threadsafe(self, index: int, msg: dict) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(self._on_worker_event, index, msg)

    def _on_worker_event(self, index: int, msg: dict) -> None:
        event = msg.get("event")
        handle = self.pool.workers[index]
        if event == "hello":
            handle.ready = True
            self._pump()
            return
        if event == "exit":
            self._on_worker_exit(index)
            return
        job = self.jobs.get(msg.get("job_id", ""))
        if job is None or job.worker != index:
            return  # stale message from a replaced worker
        if event == "step":
            if job.state is JobState.RUNNING:
                job.steps.append(msg["record"])
                self._m_steps.inc()
                self._live_append(job, msg["record"])
                self._ring(job)
                if self.chaos.enabled:
                    self._chaos_step(job, index)
        elif event == "done":
            self._worker_respawns[index] = 0
            self.breaker.record_success()
            job.cell = msg.get("cell")
            job.elapsed_s = msg.get("elapsed_s")
            self.counters["executed"] += 1
            if msg.get("warm_hit"):
                self.counters["warm_hits"] += 1
                self._m_warm_hits.inc()
            else:
                self._m_warm_misses.inc()
            if job.elapsed_s is not None:
                self._m_job_seconds.observe(job.elapsed_s)
            self._finish(job, JobState.DONE)
            # Free the worker before persisting: a store failure must
            # cost a counter, never a pool slot.
            self._worker_idle(index)
            self._persist(job)
        elif event == "cancelled":
            self._worker_respawns[index] = 0
            self.breaker.record_success()
            if job.id in self._timeout_pending:
                self._finish(job, JobState.TIMEOUT)
            else:
                self._finish(job, JobState.CANCELLED)
            self._worker_idle(index)
        elif event == "error":
            self._worker_respawns[index] = 0
            self.breaker.record_success()
            job.error = msg.get("message", "worker error")
            self._finish(job, JobState.FAILED)
            self._worker_idle(index)

    def _note_chaos(self, site: str) -> None:
        self.counters["chaos_injected"] += 1
        self._m_chaos.labels(site=site).inc()
        self.tracer.event("chaos", site=site)

    def _chaos_step(self, job: JobRecord, index: int) -> None:
        """Chaos sites checked once per worker step event.

        Both sites consume their draw on every step regardless of
        whether the action is applied, so the per-site schedule stays a
        pure function of ``(seed, step count)``.  A crash is only
        *applied* while the job still has attempt budget — injected
        faults exercise recovery, they must never consume the exactly-
        once guarantee.
        """
        if self.chaos.should("worker_crash"):
            if (
                job.attempts < job.max_attempts
                and index not in self._chaos_kills
            ):
                self._note_chaos("worker_crash")
                self._chaos_kills.add(index)
                self.pool.kill(index)
        if self.chaos.should("loop_stall"):
            self._note_chaos("loop_stall")
            time.sleep(self.chaos.stall_s)  # a deliberate loop stall

    def _on_worker_exit(self, index: int) -> None:
        if self.pool.stopping:
            return
        handle = self.pool.workers[index]
        job_id, handle.job_id = handle.job_id, None
        handle.ready = False
        chaos_kill = index in self._chaos_kills
        self._chaos_kills.discard(index)
        self._m_crashes.inc()
        self.tracer.event(
            "worker-exit", worker=index, job_id=job_id, chaos=chaos_kill
        )
        job = self.jobs.get(job_id) if job_id else None
        if job is not None and job.state is JobState.RUNNING:
            if job.id in self._cancel_requested:
                # The worker died before polling an acknowledged
                # cancel; honor it instead of re-running the job.
                self._finish(job, JobState.CANCELLED)
            elif job.id in self._timeout_pending:
                self._finish(job, JobState.TIMEOUT)
            elif job.attempts >= job.max_attempts:
                job.error = (
                    f"worker died after {job.attempts} attempt(s); "
                    "attempt cap reached"
                )
                self._finish(job, JobState.FAILED)
            else:
                self.counters["requeues"] += 1
                self._m_requeues.inc()
                job.state = JobState.QUEUED
                job.worker = None
                # Advance the sequence numbering past the abandoned
                # attempt before dropping it — plus one never-emitted
                # gap seq, so a watcher that held the *entire* abandoned
                # prefix still reconnects below the new base and gets a
                # restart event instead of silently appending the next
                # attempt's steps to stale ones.
                job.seq_base += len(job.steps) + 1
                job.steps.clear()
                self._live_abort(job)
                self.queue.requeue(job.id, job.cost)
                self._ring(job)
        if not chaos_kill:
            self.breaker.record_failure()
        if chaos_kill:
            # Injected kills exercise the requeue/respawn machinery but
            # bypass breaker and respawn-cap accounting: chaos must not
            # consume the budget that guards against real crash loops.
            self._m_respawns.inc()
            self.pool.respawn(index)
        elif not self.breaker.allow_respawn():
            # Respawn storm: the worker stays down until the breaker's
            # cooldown grants a probe (the heartbeat retries).
            self._pending_respawn.add(index)
        else:
            self._respawn_capped(index)
        # Post-mortem: whatever the flight recorder saw leading up to
        # this death goes to disk before anything else overwrites it.
        self._dump_flight(f"worker{index}-exit")

    def _respawn_capped(self, index: int) -> None:
        """Respawn one worker, honoring the per-worker respawn cap."""
        self._worker_respawns[index] += 1
        if self._worker_respawns[index] <= self.max_worker_respawns:
            self._m_respawns.inc()
            self.pool.respawn(index)
            # The fresh worker greets with "hello" and then pulls work.
        elif self.pool.alive_count() == 0:
            # Every worker is crash-looping (e.g. a broken deployment):
            # fail what's queued instead of queueing forever.
            for other in self.jobs.values():
                if (
                    not other.state.terminal
                    and other.id not in self._checkpointed
                ):
                    other.error = "no live workers (respawn cap reached)"
                    self._finish(other, JobState.FAILED)

    def _probe_respawns(self) -> None:
        """Heartbeat duty: respawn breaker-parked workers when allowed.

        One worker per beat — while half-open, the breaker grants a
        single probe anyway; once closed again, the remaining parked
        workers recover over the next few beats.
        """
        if not self._pending_respawn or self.pool.stopping:
            return
        if not self.breaker.allow_respawn():
            return
        index = min(self._pending_respawn)
        self._pending_respawn.discard(index)
        self._respawn_capped(index)

    def _dump_flight(self, reason: str) -> None:
        """Dump the flight-recorder ring to the store (best effort)."""
        if self.store is None or len(self.flight) == 0:
            return
        self._flight_dumps += 1
        path = (
            self.store.path
            / "flight"
            / f"{self._flight_dumps:03d}-{reason}.jsonl"
        )
        try:
            self.flight.dump(path)
            self._last_flight_dump = str(path)
        except OSError:  # pragma: no cover - a full disk must not
            pass  # take the serving loop down with it

    def _worker_idle(self, index: int) -> None:
        self.pool.workers[index].job_id = None
        self._pump()

    def _pump(self) -> None:
        """Dispatch queued jobs onto idle workers (work-stealing take)."""
        if self.breaker.state == CircuitBreaker.OPEN:
            return  # respawn storm: hold dispatch until a probe succeeds
        for handle in self.pool.workers:
            while handle.idle:
                job_id = self.queue.take(handle.index)
                if job_id is None:
                    break
                job = self.jobs[job_id]
                if job.state is not JobState.QUEUED:
                    continue  # cancelled while queued
                if job.id in self._cancel_requested:
                    # Cancelled while crash-requeued: don't redispatch.
                    self._finish(job, JobState.CANCELLED)
                    continue
                job.state = JobState.RUNNING
                job.worker = handle.index
                job.attempts += 1
                job.started_at = time.time()
                self._open_live_stream(job)
                self.tracer.event(
                    "dispatch",
                    job_id=job.id,
                    worker=handle.index,
                    attempt=job.attempts,
                )
                self._ring(job)
                self.pool.dispatch(handle.index, job_id, job.scenario_doc)
                break

    def _finish(self, job: JobRecord, state: JobState) -> None:
        if state is not JobState.DONE:
            # A stream that won't complete is junk on disk: drop it.
            self._live_abort(job)
        job.state = state
        job.finished_at = time.time()
        self._m_finished.labels(state=state.value).inc()
        if state is JobState.TIMEOUT:
            if job.error is None:
                job.error = f"deadline_s={job.deadline_s} exceeded"
            self.counters["timeouts"] += 1
            self._m_timeouts.inc()
        span = self._spans.pop(job.id, None)
        if span is not None:
            self.tracer.end(
                span,
                status="ok" if state is JobState.DONE else state.value,
                state=state.value,
                attempts=job.attempts,
                cached=job.cached,
            )
        self._cancel_requested.discard(job.id)
        self._timeout_pending.discard(job.id)
        self._checkpointed.discard(job.id)
        self._terminal_order.append(job.id)
        self._trim_retained_jobs()
        self._ring(job)

    def _trim_retained_jobs(self) -> None:
        """Evict the oldest terminal jobs past the retention bound.

        Watchers mid-stream hold the :class:`JobRecord` object itself,
        so eviction only removes registry entries (new lookups 404);
        the step buffers go with them, keeping a long-running server's
        memory bounded.  Results remain served via the result cache /
        store under their content key.
        """
        while len(self._terminal_order) > self.max_retained_jobs:
            job_id = self._terminal_order.pop(0)
            evicted = self.jobs.pop(job_id, None)
            if evicted is not None:
                try:
                    self._job_order.remove(job_id)
                except ValueError:  # pragma: no cover - defensive
                    pass

    def _ring(self, job: JobRecord) -> None:
        bell, job.bell = job.bell, asyncio.Event()
        bell.set()

    # -- live step streams -----------------------------------------------------

    def _open_live_stream(self, job: JobRecord) -> None:
        """Start appending this attempt's steps to the store as they land.

        At most one live writer per content key: a concurrent duplicate
        job (cache disabled) falls back to the atomic rewrite in
        :meth:`_persist`.
        """
        if self.store is None or job.key in self._live_streams:
            return
        try:
            stream = self.store.open_step_stream(job.key)
        except OSError:
            self._persist_error("open")
            return
        self._live_streams[job.key] = (job.id, stream)

    def _live_append(self, job: JobRecord, record: dict) -> None:
        entry = self._live_streams.get(job.key)
        if entry is None or entry[0] != job.id:
            return
        try:
            entry[1].append(record)
        except OSError:
            # Disk trouble mid-stream: drop the writer; _persist falls
            # back to the atomic rewrite (or counts a persist error).
            self._persist_error("append")
            self._live_streams.pop(job.key, None)
            entry[1].abort()

    def _live_abort(self, job: JobRecord) -> None:
        entry = self._live_streams.get(job.key)
        if entry is not None and entry[0] == job.id:
            self._live_streams.pop(job.key, None)
            entry[1].abort()

    def _persist(self, job: JobRecord) -> None:
        if job.cell is None:
            return
        self._remember_result(
            job.key, ({**job.cell, "key": job.key}, list(job.steps))
        )
        if self.store is not None:
            stream_ready = False
            entry = self._live_streams.get(job.key)
            if entry is not None and entry[0] == job.id:
                self._live_streams.pop(job.key, None)
                entry[1].close()
                stream_ready = entry[1].n_written == len(job.steps)
            try:
                if self.chaos.enabled:
                    if self.chaos.should("slow_io"):
                        self._note_chaos("slow_io")
                        time.sleep(self.chaos.slow_io_s)
                    if self.chaos.should("store_write"):
                        self._note_chaos("store_write")
                        raise OSError("chaos: injected store write failure")
                scenario = Scenario.from_dict(job.scenario_doc)
                self.store.record(
                    job.key,
                    scenario,
                    job.cell,
                    job.steps,
                    elapsed_s=job.elapsed_s,
                    stream_ready=stream_ready,
                )
            except Exception:  # noqa: BLE001 - a store failure (disk
                # full, permissions, bad doc) must never take down the
                # serving loop; the result stays in the memory cache.
                self._persist_error("record")

    def _remember_result(
        self, key: str, hit: tuple[dict, list[dict]]
    ) -> None:
        self._result_cache[key] = hit
        self._result_cache.move_to_end(key)
        while len(self._result_cache) > self.result_cache_entries:
            self._result_cache.popitem(last=False)

    # -- job creation ----------------------------------------------------------

    def _new_job_id(self) -> str:
        self._job_seq += 1
        return f"j{self._job_seq:06d}"

    def _cache_lookup(
        self, key: str
    ) -> tuple[dict, list[dict]] | None:
        hit = self._result_cache.get(key)
        if hit is not None:
            self._result_cache.move_to_end(key)
            return hit
        if self.store is not None:
            hit = self.store.lookup(key)
            if hit is not None:
                self._remember_result(key, hit)
        return hit

    def submit(
        self,
        scenario_doc: dict,
        *,
        use_cache: bool | None = None,
        deadline_s: float | None = None,
        client: str | None = None,
        job_id: str | None = None,
        submitted_at: float | None = None,
    ) -> list[JobRecord]:
        """Create jobs for one submitted document (sweeps expand).

        Called on the event loop.  Returns the created job records in
        cell order; cached jobs are born ``done`` with their persisted
        stream preloaded.  ``job_id``/``submitted_at`` are the
        checkpoint-restore overrides: a re-enqueued job keeps the id
        its watchers know and the submission clock its deadline counts
        from.
        """
        scenario = Scenario.from_dict(scenario_doc)
        cells = (
            scenario.expand()
            if isinstance(scenario, BaseSweepScenario)
            else [scenario]
        )
        if use_cache is None:
            use_cache = self.use_cache_default
        records: list[JobRecord] = []
        batch: list[tuple[JobRecord, Scenario]] = []
        for cell in cells:
            key = job_key(cell, self.spec_sha)
            jid = (
                job_id
                if job_id is not None and job_id not in self.jobs
                else self._new_job_id()
            )
            job_id = None  # only the first cell reuses a restored id
            job = JobRecord(
                id=jid,
                scenario_doc=cell.to_dict(),
                key=key,
                cost=estimate_cost(cell),
                max_attempts=self.max_attempts,
                deadline_s=deadline_s,
                client=client,
                bell=asyncio.Event(),
            )
            if submitted_at is not None:
                job.submitted_at = float(submitted_at)
            self.jobs[job.id] = job
            self._job_order.append(job.id)
            self._m_submitted.inc()
            self._spans[job.id] = self.tracer.begin(
                "job",
                job_id=job.id,
                key=key[:12],
                scenario=job.scenario_doc.get("kind"),
            )
            hit = self._cache_lookup(key) if use_cache else None
            if hit is not None:
                cell_doc, steps = hit
                job.cached = True
                job.cell = {
                    k: v
                    for k, v in cell_doc.items()
                    if k not in ("index", "key")
                }
                job.steps = list(steps)
                job.elapsed_s = 0.0
                self.counters["cache_hits"] += 1
                self._m_cache_hits.inc()
                self._finish(job, JobState.DONE)
            elif self.execution == "batched":
                batch.append((job, cell))
            else:
                self.queue.submit(job.id, job.cost)
            records.append(job)
        if batch:
            self._start_batch(batch)
        self._pump()
        return records

    # -- batched execution -----------------------------------------------------

    def _get_batch_twin(self) -> DigitalTwin:
        if self._batch_twin is None:
            from repro.service.warmcache import WarmStateCache

            twin = DigitalTwin(
                self.spec,
                fidelity=self.fidelity,
                warm_cache=WarmStateCache(self.warm_entries),
            )
            if self._surrogate_doc is not None:
                from repro.fastpath.bundle import SurrogateBundle

                twin.use_surrogates(
                    SurrogateBundle.from_doc(self._surrogate_doc)
                )
            self._batch_twin = twin
        return self._batch_twin

    def _start_batch(
        self, batch: list[tuple[JobRecord, Scenario]]
    ) -> None:
        """Launch one submission's uncached cells as a vectorized batch.

        The ``execution="batched"`` analogue of queueing onto the
        worker pool: every cell of the submission becomes a lane of one
        :class:`~repro.batch.engine.BatchedEngine` run in a background
        thread — one sweep, one process, shared warmup — instead of B
        jobs across B worker dispatches.  Step records stream back onto
        the event loop exactly like worker step events, so watchers see
        the same transport either way.
        """
        now = time.time()
        jobs = [job for job, _ in batch]
        scenarios = [cell for _, cell in batch]
        for job in jobs:
            job.state = JobState.RUNNING
            job.attempts += 1
            job.started_at = now
            self._ring(job)
        if self._loop is not None and self._loop.is_running():
            loop = self._loop

            def post(fn, *fn_args) -> None:
                with contextlib.suppress(RuntimeError):
                    loop.call_soon_threadsafe(fn, *fn_args)

            # run_in_executor both schedules the thread and returns the
            # future — nothing to await here; completion flows back via
            # the posted _on_batch_done/_on_batch_error callbacks.
            loop.run_in_executor(
                None, self._execute_batch, jobs, scenarios, post
            )
        else:
            # No running loop (programmatic submit): run inline.
            self._execute_batch(
                jobs, scenarios, lambda fn, *fn_args: fn(*fn_args)
            )

    def _execute_batch(self, jobs, scenarios, post) -> None:
        """Run one batch (executor thread); ``post`` marshals to the loop."""
        from repro.batch import BatchedEngine
        from repro.viz.export import step_record

        def on_step(index: int, step) -> None:
            post(self._on_batch_step, jobs[index], step_record(step))

        t0 = time.perf_counter()
        try:
            engine = BatchedEngine(scenarios, self._get_batch_twin())
            outcomes = engine.run(on_step=on_step)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            post(self._on_batch_error, jobs, f"{type(exc).__name__}: {exc}")
            return
        # Amortized per-cell cost: the lanes ran together, so each
        # cell's share of the batch wall time is the honest figure.
        per_cell = (time.perf_counter() - t0) / max(len(jobs), 1)
        for job, outcome in zip(jobs, outcomes):
            cell = result_to_cell_doc(0, outcome)
            cell.pop("index", None)
            post(self._on_batch_done, job, cell, per_cell)

    def _on_batch_step(self, job: JobRecord, record: dict) -> None:
        if job.state is JobState.RUNNING:
            job.steps.append(record)
            self._m_steps.inc()
            self._ring(job)

    def _on_batch_done(
        self, job: JobRecord, cell: dict, elapsed_s: float
    ) -> None:
        if job.state.terminal:
            return
        if job.id in self._cancel_requested:
            self._finish(job, JobState.CANCELLED)
            return
        if job.id in self._timeout_pending:
            self._finish(job, JobState.TIMEOUT)
            return
        job.cell = cell
        job.elapsed_s = elapsed_s
        self.counters["executed"] += 1
        self._m_job_seconds.observe(elapsed_s)
        self._finish(job, JobState.DONE)
        self._persist(job)

    def _on_batch_error(self, jobs, message: str) -> None:
        for job in jobs:
            if not job.state.terminal:
                job.error = message
                self._finish(job, JobState.FAILED)

    def cancel(self, job_id: str) -> JobRecord:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if job.state is JobState.QUEUED:
            self.queue.remove(job.id)
            self._finish(job, JobState.CANCELLED)
        elif job.state is JobState.RUNNING:
            self._cancel_requested.add(job.id)
            if job.worker is not None:
                self.pool.cancel(job.worker, job.id)
        return job

    # -- deadlines -------------------------------------------------------------

    def _check_deadlines(self) -> None:
        """Heartbeat duty: expire jobs past their ``deadline_s``."""
        now = time.time()
        for job in list(self.jobs.values()):
            if (
                job.deadline_s is None
                or job.state.terminal
                or job.id in self._timeout_pending
                or job.id in self._checkpointed
            ):
                continue
            if now - job.submitted_at < job.deadline_s:
                continue
            self._expire(job)

    def _expire(self, job: JobRecord) -> None:
        job.error = f"deadline_s={job.deadline_s} exceeded"
        self.tracer.event("job-timeout", job_id=job.id, state=job.state.value)
        if job.state is JobState.QUEUED:
            self.queue.remove(job.id)
            self._finish(job, JobState.TIMEOUT)
        elif job.state is JobState.RUNNING:
            # Ask the worker to stop; its cancel ack (or death) finishes
            # the job as TIMEOUT via ``_timeout_pending``.
            self._timeout_pending.add(job.id)
            if job.worker is not None:
                self.pool.cancel(job.worker, job.id)

    # -- graceful drain --------------------------------------------------------

    def begin_drain(self) -> dict[str, Any]:
        """Stop admitting, checkpoint the queue, finish running jobs.

        Idempotent: the first call flips ``draining`` (admission starts
        rejecting with 503), removes every queued job from the dispatch
        queue into the store checkpoint, and starts the grace timer for
        running jobs.  When the grace window closes — or everything
        finished sooner — still-running jobs are checkpointed too and
        :meth:`request_stop` fires.  The next server started on the
        same store consumes the checkpoint and re-enqueues the parked
        jobs under their original ids.
        """
        if not self.draining:
            self.draining = True
            self.tracer.event("drain-begin")
            self._checkpoint_pending()
            if self._loop is not None and self._loop.is_running():
                self._drain_task = asyncio.ensure_future(self._drain_wait())
        running = sorted(
            j.id for j in self.jobs.values() if j.state is JobState.RUNNING
        )
        return {
            "draining": True,
            "checkpointed": sorted(self._checkpointed),
            "running": running,
        }

    def _checkpoint_pending(self) -> None:
        """Park every queued job in the store checkpoint."""
        if self.store is None:
            return  # storeless drain degrades to finishing everything
        for job in self.jobs.values():
            if (
                job.state is JobState.QUEUED
                and job.id not in self._cancel_requested
            ):
                self.queue.remove(job.id)
                self._checkpointed.add(job.id)
        self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        if self.store is None:
            return
        entries = []
        for job_id in sorted(self._checkpointed):
            job = self.jobs.get(job_id)
            if job is None or job.state.terminal:
                continue
            entries.append(
                {
                    "id": job.id,
                    "scenario": job.scenario_doc,
                    "deadline_s": job.deadline_s,
                    "client": job.client,
                    "submitted_at": job.submitted_at,
                }
            )
        doc = {"job_seq": self._job_seq, "jobs": entries}
        try:
            self.store.save_checkpoint(doc)
        except OSError:
            self._persist_error("checkpoint")

    async def _drain_wait(self) -> None:
        """Grace loop: wait out running jobs, then stop the server."""
        deadline = time.monotonic() + self.drain_grace_s
        while time.monotonic() < deadline:
            busy = any(
                not j.state.terminal and j.id not in self._checkpointed
                for j in self.jobs.values()
            )
            if not busy:
                break
            await asyncio.sleep(0.05)
        # Whatever outlived the grace window is parked too: it will
        # re-run from scratch (same content key) after the restart.
        leftovers = [
            j
            for j in self.jobs.values()
            if not j.state.terminal and j.id not in self._checkpointed
        ]
        if self.store is not None and leftovers:
            for job in leftovers:
                if job.state is JobState.QUEUED:
                    self.queue.remove(job.id)
                self._checkpointed.add(job.id)
            self._write_checkpoint()
        self.tracer.event(
            "drain-complete", checkpointed=len(self._checkpointed)
        )
        self.drained = True
        self.request_stop()

    def _restore_checkpoint(self) -> None:
        """Re-enqueue jobs a drained predecessor parked in the store."""
        if self.store is None:
            return
        doc = self.store.take_checkpoint()
        if not doc:
            return
        self._job_seq = max(self._job_seq, int(doc.get("job_seq", 0) or 0))
        restored = 0
        for entry in doc.get("jobs", []):
            if not isinstance(entry, dict) or "scenario" not in entry:
                continue
            try:
                self.submit(
                    entry["scenario"],
                    deadline_s=entry.get("deadline_s"),
                    client=entry.get("client"),
                    job_id=entry.get("id"),
                    submitted_at=entry.get("submitted_at"),
                )
            except ScenarioError:
                continue  # a checkpoint from an older schema: skip
            restored += 1
        if restored:
            self.tracer.event("checkpoint-restored", jobs=restored)

    # -- admission control -----------------------------------------------------

    def _admission_check(
        self, client: str | None
    ) -> tuple[str, int, int] | None:
        """(reason, HTTP status, Retry-After seconds), or None to admit."""
        if self.draining:
            return ("draining", 503, 5)
        if len(self.queue) >= self.max_queue_depth:
            return ("queue_full", 429, 1)
        if client is not None:
            inflight = sum(
                1
                for j in self.jobs.values()
                if j.client == client and not j.state.terminal
            )
            if inflight >= self.max_inflight_per_client:
                return ("client_inflight", 429, 1)
        return None

    # -- HTTP ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            if not request:
                return
            try:
                method, target, _ = request.decode("latin-1").split(" ", 2)
            except ValueError:
                await _respond(writer, 400, {"error": "bad request line"})
                return
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", "0") or 0)
            if length:
                body = await reader.readexactly(length)
            await self._route(method, target, headers, body, reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            pass  # client went away; jobs are unaffected
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _route(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            await _respond(writer, 200, self._health_doc())
            return
        if method == "GET" and path == "/metrics":
            await _respond_raw(
                writer,
                200,
                self.metrics.render().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if method == "GET" and path == "/statusz":
            await _respond(writer, 200, self._statusz_doc())
            return
        if method == "GET" and path == "/console":
            await _respond_raw(
                writer,
                200,
                load_console_html().encode("utf-8"),
                "text/html; charset=utf-8",
            )
            return
        if method == "GET" and path == "/api/query":
            await self._api_query(target, writer)
            return
        if method == "GET" and path == "/alertz":
            await _respond(writer, 200, self._alertz_doc())
            return
        if method == "POST" and path == "/jobs":
            await self._post_jobs(headers, body, writer)
            return
        if method == "POST" and path == "/drainz":
            await _respond(writer, 202, self.begin_drain())
            return
        if method == "GET" and path == "/jobs":
            await _respond(
                writer,
                200,
                {
                    "jobs": [
                        self.jobs[jid].summary() for jid in self._job_order
                    ]
                },
            )
            return
        parts = path.strip("/").split("/")
        if parts and parts[0] == "jobs" and len(parts) >= 2:
            job = self.jobs.get(parts[1])
            if job is None:
                await _respond(writer, 404, {"error": f"no job {parts[1]}"})
                return
            tail = parts[2] if len(parts) > 2 else ""
            if method == "GET" and not tail:
                await _respond(writer, 200, {"job": job.summary()})
                return
            if method == "GET" and tail == "result":
                if job.state is not JobState.DONE:
                    await _respond(
                        writer,
                        409,
                        {"error": f"job is {job.state.value}, not done"},
                    )
                    return
                await _respond(
                    writer,
                    200,
                    {
                        "job": job.summary(),
                        "cell": _nulled_nans(job.cell),
                    },
                )
                return
            if method == "POST" and tail == "cancel":
                self.cancel(job.id)
                await _respond(writer, 202, {"job": job.summary()})
                return
            if method == "GET" and tail in ("stream", "watch", "ws"):
                raw = parse_qs(urlsplit(target).query).get(
                    "from_seq", ["0"]
                )[-1]
                try:
                    from_seq = max(0, int(raw))
                except ValueError:
                    await _respond(
                        writer,
                        400,
                        {"error": f"bad from_seq {raw!r}: expected an int"},
                    )
                    return
                if tail == "ws":
                    await self._stream_websocket(
                        job, headers, reader, writer, from_seq=from_seq
                    )
                else:
                    await self._stream_ndjson(job, writer, from_seq=from_seq)
                return
        await _respond(
            writer, 404, {"error": f"no route {method} {path}"}
        )

    async def _api_query(
        self, target: str, writer: asyncio.StreamWriter
    ) -> None:
        """``GET /api/query?metric=&start=&end=&step=&agg=``."""
        if self.history is None:
            await _respond(
                writer,
                400,
                {
                    "error": "telemetry history is disabled (serve with "
                    "metrics on and history_interval > 0)"
                },
            )
            return
        params = {
            k: v[-1] for k, v in parse_qs(urlsplit(target).query).items()
        }
        metric = params.get("metric")
        if not metric:
            await _respond(writer, 400, {"error": "missing ?metric="})
            return
        try:
            kwargs: dict[str, float] = {}
            for key in ("start", "end", "step"):
                if key in params:
                    kwargs[key] = float(params[key])
            doc = self.history.query(
                metric, agg=params.get("agg", "last"), **kwargs
            )
        except (ValueError, ExaDigiTError) as exc:
            await _respond(writer, 400, {"error": str(exc)})
            return
        await _respond(writer, 200, doc)

    def _alertz_doc(self) -> dict[str, Any]:
        if self.alerts is None:
            return {
                "enabled": False,
                "rules": [],
                "alerts": [],
                "firing": 0,
                "evaluations": 0,
                "transitions": [],
            }
        return self.alerts.snapshot()

    def _store_writable(self) -> tuple[bool, str | None]:
        """Probe the store directory with an actual write.

        ``os.access`` lies for privileged processes, so the probe
        creates (and removes) a real file — the same operation
        :meth:`_persist` will need.
        """
        import os

        probe = self.store.path / ".healthz-probe"
        try:
            with probe.open("w", encoding="utf-8") as fh:
                fh.write("ok")
            os.unlink(probe)
            return True, None
        except OSError as exc:
            return False, f"{type(exc).__name__}: {exc}"

    def _health_checks(self) -> dict[str, Any]:
        """The degradable probes behind /healthz: pool, store, loop."""
        alive = self.pool.alive_count()
        lag = self._loop_lag_s()
        checks: dict[str, Any] = {
            "pool": {
                "ok": alive >= 1,
                "alive": alive,
                "configured": self.n_workers,
            },
            "event_loop": {
                "ok": lag < 0.5,
                "lag_s": round(lag, 4),
            },
        }
        if self.store is not None:
            ok, error = self._store_writable()
            store_check: dict[str, Any] = {
                "ok": ok,
                "path": str(self.store.path),
            }
            if error is not None:
                store_check["error"] = error
            checks["store"] = store_check
        self._note_health_transitions(checks)
        return checks

    def _note_health_transitions(self, checks: dict[str, Any]) -> None:
        """Dump the flight recorder when any named check degrades.

        A healthy→degraded flip is a post-mortem moment exactly like a
        worker death: whatever the ring saw leading up to it goes to
        disk before it scrolls away.  The first observation of a check
        sets its baseline without triggering (a server that *boots*
        degraded has no transition to dump).
        """
        for name, check in checks.items():
            ok = bool(check["ok"])
            was = self._check_ok.get(name, ok)
            if was and not ok:
                self.tracer.event(
                    "health-degraded",
                    check=name,
                    detail={k: v for k, v in check.items() if k != "ok"},
                )
                self._dump_flight(f"degraded-{name}")
            elif ok and not was:
                self.tracer.event("health-recovered", check=name)
            self._check_ok[name] = ok

    def _health_doc(self) -> dict[str, Any]:
        checks = self._health_checks()
        doc = {
            "status": (
                "ok"
                if all(c["ok"] for c in checks.values())
                else "degraded"
            ),
            "checks": checks,
            "system": self.spec.name,
            "spec_sha256": self.spec_sha,
            "fidelity": self.fidelity,
            "execution": self.execution,
            "workers": {
                "configured": self.n_workers,
                "alive": self.pool.alive_count(),
            },
            "queue": {
                "depth": len(self.queue),
                "backlogs": self.queue.backlogs(),
                "steals": self.queue.steals,
            },
            "jobs": {
                state.value: sum(
                    1 for j in self.jobs.values() if j.state is state
                )
                for state in JobState
            },
            "counters": dict(self.counters),
            "draining": self.draining,
            "breaker": self.breaker.snapshot(),
        }
        if self.store is not None:
            doc["store"] = {
                "path": str(self.store.path),
                "results": len(self.store),
            }
        return doc

    def _job_seconds_doc(self) -> dict[str, Any]:
        """Job wall-time percentiles from the job-seconds histogram."""
        hist = self._m_job_seconds.child()
        count = int(getattr(hist, "count", 0) or 0)
        doc: dict[str, Any] = {"count": count}
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            value = hist.quantile(q) if count else None
            doc[label] = round(value, 4) if value is not None else None
        return doc

    def _statusz_doc(self, *, max_jobs: int = 256) -> dict[str, Any]:
        """The JSON ops snapshot behind /statusz (and `repro top`)."""
        recent = self._job_order[-max_jobs:]
        return {
            "server": self._health_doc(),
            "time": time.time(),
            "url": self.url,
            "jobs_total": len(self._job_order),
            "jobs": [self.jobs[jid].summary() for jid in recent],
            "metrics": self.metrics.snapshot(),
            "history": (
                self.history.stats()
                if self.history is not None
                else disabled_history_stats()
            ),
            "alerts": (
                self.alerts.statusz()
                if self.alerts is not None
                else disabled_alerts_statusz()
            ),
            "job_seconds": self._job_seconds_doc(),
            "resilience": {
                "chaos": self.chaos.snapshot(),
                "breaker": self.breaker.snapshot(),
                "draining": self.draining,
                "drained": self.drained,
                "checkpointed": len(self._checkpointed),
                "pending_respawns": sorted(self._pending_respawn),
            },
            "flight": {
                "capacity": self.flight.capacity,
                "events": len(self.flight),
                "total_emitted": self.flight.total_emitted,
                "dumps": self._flight_dumps,
                "last_dump": self._last_flight_dump,
            },
        }

    async def _post_jobs(
        self,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await _respond(writer, 400, {"error": f"bad JSON body: {exc}"})
            return
        if not isinstance(doc, dict):
            await _respond(writer, 400, {"error": "body must be an object"})
            return
        client = headers.get("x-repro-client") or None
        rejection = self._admission_check(client)
        if rejection is not None:
            reason, status, retry_after = rejection
            self.counters["admission_rejected"] += 1
            self._m_admission.labels(reason=reason).inc()
            await _respond(
                writer,
                status,
                {"error": f"submission rejected: {reason}", "reason": reason},
                extra_headers={"Retry-After": str(retry_after)},
            )
            return
        scenario_doc = doc.get("scenario", doc)
        use_cache = doc.get("use_cache") if "scenario" in doc else None
        deadline_s = doc.get("deadline_s") if "scenario" in doc else None
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                deadline_s = -1.0
            if deadline_s <= 0:
                await _respond(
                    writer,
                    400,
                    {"error": "deadline_s must be a positive number"},
                )
                return
        try:
            records = self.submit(
                scenario_doc,
                use_cache=use_cache,
                deadline_s=deadline_s,
                client=client,
            )
        except ScenarioError as exc:
            await _respond(writer, 400, {"error": str(exc)})
            return
        await _respond(
            writer,
            201,
            {
                "job": records[0].summary(),
                "jobs": [r.summary() for r in records],
            },
        )

    # -- streaming transports --------------------------------------------------

    async def _stream_job(
        self, job: JobRecord, send_line: SendLine, *, from_seq: int = 0
    ) -> None:
        """The transport-independent watch loop (NDJSON and ws share it).

        Every step line carries a monotonic ``seq`` (``job.seq_base`` +
        buffer index; control events carry none) and ``from_seq`` skips
        the already-delivered prefix, so a reconnecting watcher resumes
        mid-stream bit-identically.  A ``from_seq`` outside the current
        attempt's numbering — an abandoned attempt, or a previous
        server life whose counting restarted — gets an explicit
        ``restart`` event and the full replay from the attempt's base.
        """
        base = job.seq_base
        cursor = 0
        self._m_stream_clients.inc()
        if from_seq:
            self.counters["stream_resumes"] += 1
            self._m_resumes.inc()
            if base <= from_seq <= base + len(job.steps):
                cursor = from_seq - base
            else:
                await send_line(
                    restart_event(
                        job.attempts, "sequence reset; stream restarts"
                    )
                )
        try:
            while True:
                bell = job.bell
                if job.seq_base != base:
                    # The buffered attempt was abandoned (requeue).
                    base = job.seq_base
                    if cursor:
                        await send_line(
                            restart_event(
                                job.attempts + 1,
                                "worker died; job requeued",
                            )
                        )
                    cursor = 0
                while cursor < len(job.steps):
                    await send_line(
                        {**job.steps[cursor], "seq": base + cursor}
                    )
                    cursor += 1
                    if self.chaos.enabled and self.chaos.should(
                        "conn_drop"
                    ):
                        self._note_chaos("conn_drop")
                        raise _ChaosDrop
                if job.state.terminal:
                    await send_line(job.terminal_event())
                    return
                await bell.wait()
        finally:
            self._m_stream_clients.dec()

    async def _stream_ndjson(
        self,
        job: JobRecord,
        writer: asyncio.StreamWriter,
        *,
        from_seq: int = 0,
    ) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def send_line(doc: dict) -> None:
            payload = (encode_step_line(doc) + "\n").encode("utf-8")
            writer.write(
                f"{len(payload):x}\r\n".encode("ascii")
                + payload
                + b"\r\n"
            )
            await writer.drain()

        try:
            await self._stream_job(job, send_line, from_seq=from_seq)
        except _ChaosDrop:
            # Vanish without the terminal chunk: the client sees a torn
            # transfer, exactly like a mid-stream network failure.
            writer.transport.abort()
            return
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _stream_websocket(
        self,
        job: JobRecord,
        headers: dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        from_seq: int = 0,
    ) -> None:
        key = headers.get("sec-websocket-key")
        if (
            key is None
            or "websocket" not in headers.get("upgrade", "").lower()
        ):
            await _respond(
                writer, 400, {"error": "websocket upgrade required"}
            )
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {wsproto.accept_key(key)}\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()

        async def send_line(doc: dict) -> None:
            writer.write(wsproto.encode_frame(encode_step_line(doc)))
            await writer.drain()

        stream_task = asyncio.ensure_future(
            self._stream_job(job, send_line, from_seq=from_seq)
        )
        # Mark any stream failure (e.g. the client vanishing between
        # our poll and a send) as retrieved: a watcher dying must never
        # surface as an "exception was never retrieved" warning, even
        # when server shutdown races the handler's own await below.
        stream_task.add_done_callback(
            lambda t: None if t.cancelled() else t.exception()
        )
        frames = wsproto.FrameReader()
        try:
            while not stream_task.done():
                read_task = asyncio.ensure_future(reader.read(4096))
                done, _ = await asyncio.wait(
                    {stream_task, read_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if read_task in done:
                    data = read_task.result()
                    if not data:
                        stream_task.cancel()
                        break
                    for frame in frames.feed(data):
                        if frame.opcode == wsproto.OP_CLOSE:
                            stream_task.cancel()
                            break
                        if frame.opcode == wsproto.OP_PING:
                            writer.write(
                                wsproto.encode_frame(
                                    frame.payload, opcode=wsproto.OP_PONG
                                )
                            )
                            await writer.drain()
                else:
                    read_task.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, ConnectionError
                    ):
                        await read_task
            try:
                with contextlib.suppress(asyncio.CancelledError):
                    await stream_task
            except _ChaosDrop:
                # No close frame, no goodbye: abort the transport so
                # the watcher sees a dead socket and resumes by seq.
                writer.transport.abort()
                return
            writer.write(
                wsproto.encode_frame(b"", opcode=wsproto.OP_CLOSE)
            )
            await writer.drain()
        finally:
            if not stream_task.done():
                stream_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await stream_task


_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


async def _respond_raw(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str,
    extra_headers: dict[str, str] | None = None,
) -> None:
    extras = "".join(
        f"{name}: {value}\r\n"
        for name, value in (extra_headers or {}).items()
    )
    writer.write(
        (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extras}"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        + payload
    )
    await writer.drain()


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    doc: dict,
    extra_headers: dict[str, str] | None = None,
) -> None:
    await _respond_raw(
        writer,
        status,
        json.dumps(doc).encode("utf-8"),
        "application/json",
        extra_headers,
    )


__all__ = ["TwinServer"]
