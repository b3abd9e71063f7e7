"""Process worker pool with work stealing, for the twin service.

Execution model:

- N worker *processes* (one :class:`~repro.scenarios.twin.DigitalTwin`
  each, with a per-process :class:`~repro.service.warmcache.
  WarmStateCache`, so each worker pays the 1800 s cooling warmup once
  per (spec, wet-bulb) and then serves repeat jobs warm);
- a :class:`WorkStealingQueue` in the server process: every worker owns
  a deque, submissions land on the least-backlogged deque (estimated
  cost), and a worker that drains its own deque *steals from the tail*
  of the most-backlogged one — the classic remedy for heterogeneous
  job costs (one 24 h replay must not serialize a queue of millisecond
  surrogate jobs behind it);
- a pull protocol over :mod:`multiprocessing` pipes: the server
  dispatches one *lane group* at a time to an idle worker — a list of
  ``(job_id, scenario)`` pairs, one cell under ``execution="processes"``
  or a submission's uncached cells under ``"batched"`` — and the worker
  runs the group through one
  :class:`~repro.batch.engine.BatchedEngine`.  It streams ``step``
  messages back per job id (one per engine quantum) and finishes each
  member with ``done`` (as its last lane ends) / ``error`` /
  ``cancelled``.  Cancel requests are polled between steps: a
  cancelled member is acknowledged at once and its later steps are
  dropped; the run stops once no member is live.  A dead worker
  surfaces as an ``exit`` event;
  the server requeues its running members (attempt-capped) and
  respawns.

Everything here is transport-agnostic and asyncio-free: the server
bridges reader threads into its event loop.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable

from repro.batch import BatchedEngine
from repro.exceptions import ExaDigiTError
from repro.scenarios.artifacts import result_to_cell_doc
from repro.scenarios.base import Scenario
from repro.scenarios.twin import DigitalTwin, rebuild_twin
from repro.viz.export import step_record

#: How worker processes start: a fresh interpreter, never a fork of the
#: server's threads and event loop.
START_METHOD = "spawn"


class WorkStealingQueue:
    """Per-worker deques with least-loaded placement and tail stealing.

    Pure data structure (no locking — the server mutates it from one
    event-loop thread only).  Costs are the relative estimates of
    :func:`~repro.service.protocol.estimate_cost`; placement picks the
    worker with the smallest backlog sum, and :meth:`take` steals the
    *tail* (largest-position, most-recently-queued) entry of the most
    loaded deque when the taker's own deque is empty — stolen work is
    the work its owner would reach last.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ExaDigiTError("need at least one worker")
        self.n_workers = n_workers
        self._deques: list[deque[tuple[str, float]]] = [
            deque() for _ in range(n_workers)
        ]
        self.steals = 0

    def backlog(self, worker: int) -> float:
        """Summed cost estimate queued on one worker."""
        return sum(cost for _, cost in self._deques[worker])

    def backlogs(self) -> list[float]:
        return [self.backlog(i) for i in range(self.n_workers)]

    def __len__(self) -> int:
        return sum(len(d) for d in self._deques)

    def submit(self, job_id: str, cost: float) -> int:
        """Queue a job on the least-backlogged worker; returns its index."""
        worker = min(range(self.n_workers), key=self.backlog)
        self._deques[worker].append((job_id, float(cost)))
        return worker

    def requeue(self, job_id: str, cost: float) -> int:
        """Put a job back at the *head* of the least-backlogged deque.

        Requeued jobs (worker died mid-run) go to the front so a
        crash-looping job fails fast at its attempt cap instead of
        aging at the back of the queue.
        """
        worker = min(range(self.n_workers), key=self.backlog)
        self._deques[worker].appendleft((job_id, float(cost)))
        return worker

    def take(self, worker: int) -> str | None:
        """Next job for ``worker``: own head, else steal a victim's tail."""
        own = self._deques[worker]
        if own:
            return own.popleft()[0]
        victim = max(range(self.n_workers), key=self.backlog)
        if self._deques[victim]:
            self.steals += 1
            return self._deques[victim].pop()[0]
        return None

    def remove(self, job_id: str) -> bool:
        """Drop a queued job (cancellation); False if not queued."""
        for dq in self._deques:
            for entry in dq:
                if entry[0] == job_id:
                    dq.remove(entry)
                    return True
        return False


# -- worker process ------------------------------------------------------------


class _CancelGroup(Exception):
    """Raised inside the step callback once every member is cancelled."""


def _drain_control(conn, live: set[str]) -> None:
    """Poll for mid-run control messages (cancel); called between steps.

    A cancel for a live member is acknowledged at once and drops the
    member from ``live``; the group aborts when none is left.
    """
    while conn.poll():
        msg = conn.recv()
        cmd = msg.get("cmd")
        if cmd == "cancel" and msg.get("job_id") in live:
            live.discard(msg["job_id"])
            conn.send({"event": "cancelled", "job_id": msg["job_id"]})
            if not live:
                raise _CancelGroup
        # A stale cancel (for a job already finished) or anything else
        # mid-run is dropped; "stop" is honored at the loop boundary by
        # the cancel path too.
        if cmd == "stop":
            raise SystemExit(0)


def _run_group(conn, twin: DigitalTwin, msg: dict[str, Any]) -> None:
    """Run one lane group through :class:`BatchedEngine`, streaming
    every member's steps under its own job id and finishing each member
    as its last lane ends."""
    job_ids = [job_id for job_id, _ in msg["jobs"]]
    live = set(job_ids)
    try:
        scenarios = [Scenario.from_dict(doc) for _, doc in msg["jobs"]]
        cache = twin.warm_cache
        hits_before = cache.hits if cache is not None else 0
        t0 = time.perf_counter()

        def on_step(index: int, step) -> None:
            job_id = job_ids[index]
            if job_id in live:
                conn.send(
                    {
                        "event": "step",
                        "job_id": job_id,
                        "record": step_record(step),
                    }
                )
            elif not live:
                # Every member is terminal, so the server may already
                # have sent the next group: stop before reading it.
                raise _CancelGroup
            _drain_control(conn, live)

        def on_result(index: int, outcome) -> None:
            job_id = job_ids[index]
            if job_id not in live:
                return
            cell = result_to_cell_doc(0, outcome)
            cell.pop("index", None)
            conn.send(
                {
                    "event": "done",
                    "job_id": job_id,
                    "cell": cell,
                    "elapsed_s": time.perf_counter() - t0,
                    "warm_hit": cache is not None and cache.hits > hits_before,
                }
            )
            live.discard(job_id)  # terminal: never also an error

        BatchedEngine(scenarios, twin).run(
            on_step=on_step, on_result=on_result
        )
    except _CancelGroup:
        pass  # every member is terminal: its done or cancel was sent
    except Exception as exc:  # noqa: BLE001 - report, don't die
        for job_id in job_ids:
            if job_id in live:
                conn.send(
                    {
                        "event": "error",
                        "job_id": job_id,
                        "message": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(),
                    }
                )


def worker_main(conn, recipe) -> None:
    """Entry point of one worker process.

    Rebuilds the server's twin once from its recipe
    (:func:`~repro.scenarios.twin.rebuild_twin`: spec, fidelity,
    cooling backend, shared surrogate bundle and a fresh warm-plant
    cache) and then serves ``run`` commands until ``stop`` or pipe EOF.
    """
    twin = rebuild_twin(recipe)
    conn.send({"event": "hello", "pid": os.getpid()})
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            cmd = msg.get("cmd")
            if cmd == "stop":
                return
            if cmd == "run":
                _run_group(conn, twin, msg)
            # Stale cancels for finished jobs are dropped silently.
    except SystemExit:
        return


# -- server-side pool ----------------------------------------------------------


class WorkerHandle:
    """Server-side view of one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn = None
        self.thread: threading.Thread | None = None
        self.ready = False  # hello received, idle
        self.job_ids: set[str] = set()  # the in-flight group's live members
        self.alive = False

    @property
    def idle(self) -> bool:
        return self.alive and self.ready and not self.job_ids


class WorkerPool:
    """Spawn, feed, and supervise the worker processes.

    Every worker rebuilds ``twin`` once from its
    :meth:`~repro.scenarios.twin.DigitalTwin.recipe`.

    ``on_event(worker_index, message)`` is invoked from per-worker
    reader threads for every worker message, plus a synthesized
    ``{"event": "exit"}`` when a worker's pipe closes (crash or stop).
    The caller (the server) is responsible for marshalling these into
    its event loop.
    """

    def __init__(
        self,
        twin: DigitalTwin,
        n_workers: int,
        *,
        on_event: Callable[[int, dict], None],
    ) -> None:
        if n_workers < 1:
            raise ExaDigiTError("need at least one worker")
        self._recipe = twin.recipe()
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._on_event = on_event
        self.stopping = False
        self.workers = [WorkerHandle(i) for i in range(n_workers)]

    def start(self) -> None:
        for handle in self.workers:
            self._spawn(handle)

    def _spawn(self, handle: WorkerHandle) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child, self._recipe),
            daemon=True,
            name=f"twin-worker-{handle.index}",
        )
        proc.start()
        child.close()
        handle.process = proc
        handle.conn = parent
        handle.alive = True
        handle.ready = False
        handle.job_ids = set()
        handle.thread = threading.Thread(
            target=self._reader,
            args=(handle,),
            daemon=True,
            name=f"twin-worker-{handle.index}-reader",
        )
        handle.thread.start()

    def _reader(self, handle: WorkerHandle) -> None:
        conn = handle.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            self._on_event(handle.index, msg)
        handle.alive = False
        self._on_event(handle.index, {"event": "exit"})

    def respawn(self, index: int) -> None:
        """Replace a dead worker with a fresh process."""
        handle = self.workers[index]
        if handle.process is not None and handle.process.is_alive():
            handle.process.terminate()
        self._spawn(handle)

    def dispatch(self, index: int, group: list[tuple[str, dict]]) -> None:
        """Hand one lane group of ``(job_id, scenario_doc)`` pairs to a
        worker; it stays busy until every member is terminal."""
        handle = self.workers[index]
        handle.job_ids = {job_id for job_id, _ in group}
        handle.conn.send({"cmd": "run", "jobs": group})

    def cancel(self, index: int, job_id: str) -> None:
        handle = self.workers[index]
        if handle.alive and job_id in handle.job_ids:
            handle.conn.send({"cmd": "cancel", "job_id": job_id})

    def kill(self, index: int) -> bool:
        """SIGKILL one worker (chaos injection); True if it was alive.

        The kill surfaces through the normal supervision path — pipe
        EOF, reader-thread exit, a synthesized ``exit`` event — so the
        server's recovery machinery (requeue, respawn, breaker) sees a
        chaos kill exactly as it would a real crash.
        """
        handle = self.workers[index]
        if handle.process is None or not handle.process.is_alive():
            return False
        handle.process.kill()
        handle.ready = False  # no dispatch until the replacement's hello
        return True

    def alive_count(self) -> int:
        return sum(1 for h in self.workers if h.alive)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop every worker: polite stop command, then terminate."""
        self.stopping = True
        for handle in self.workers:
            if handle.alive and handle.conn is not None:
                try:
                    handle.conn.send({"cmd": "stop"})
                except (BrokenPipeError, OSError):
                    pass
        for handle in self.workers:
            if handle.process is not None:
                handle.process.join(timeout=timeout_s)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=timeout_s)
            handle.alive = False


__all__ = [
    "WorkStealingQueue",
    "WorkerPool",
    "WorkerHandle",
    "worker_main",
]
