"""Service wire protocol: job model, content-addressed keys, events.

One vocabulary shared by the server, the worker pool, the persisted
store, and the client:

- a **job** wraps one declarative scenario document submitted over
  HTTP; its lifecycle is the :class:`JobState` machine
  ``queued -> running -> done | failed | cancelled | timeout``
  (``running`` may fall back to ``queued`` when a worker dies and the
  job is requeued; ``timeout`` is a cancellation forced by the job's
  ``deadline_s``);
- the **job key** is the SHA-256 of the canonical scenario JSON plus
  the serving spec's SHA-256 — the content address under which results
  and step streams are cached (two submissions of byte-identical
  scenarios against the same system share one simulation);
- **stream lines** are NDJSON documents: per-quantum step records
  (:func:`repro.viz.export.step_record`, no ``event`` field) inter-
  leaved with control events (``{"event": "restart" | "done" |
  "failed" | "cancelled", ...}``).  The same documents travel as
  websocket text frames — transports differ only in framing.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro.scenarios.base import Scenario

#: Stream-terminal event names (a watcher stops after any of these).
TERMINAL_EVENTS = ("done", "failed", "cancelled", "timeout")


class JobState(str, enum.Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMEOUT,
        )


def job_key(scenario: Scenario | dict[str, Any], spec_sha: str) -> str:
    """Content address of one scenario run against one system.

    Canonical form: the scenario's ``to_dict`` document with sorted
    keys, concatenated with the spec SHA-256.  Declarative scenarios
    make this exact — two equal keys simulate identically.
    """
    doc = scenario.to_dict() if isinstance(scenario, Scenario) else scenario
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(
        (text + "\n" + spec_sha).encode("utf-8")
    ).hexdigest()


def estimate_cost(scenario: Scenario) -> float:
    """Relative cost estimate of one job, for work-stealing placement.

    Units are arbitrary (seconds-of-simulated-time scaled by backend
    weight): coupling the cooling plant roughly quadruples a quantum,
    what-ifs run two engines, and the surrogate backend answers in
    milliseconds regardless of duration.  Placement only needs the
    *ordering* to be roughly right — stealing corrects the rest.
    """
    cost = float(scenario.duration_s)
    if getattr(scenario, "with_cooling", False):
        cost *= 4.0
    if scenario.kind == "whatif":
        cost *= 2.0
    if scenario.fidelity == "surrogate":
        cost *= 0.01
    return max(cost, 1.0)


@dataclass
class JobRecord:
    """Server-side state of one submitted job.

    ``steps`` buffers every streamed step record for the current
    attempt, so a watcher attaching at any time replays the stream from
    step 0 — the bit-identical-to-direct-run guarantee holds for late
    subscribers too.  ``bell`` is an asyncio Event replaced on every
    update (the "bell" pattern): watchers snapshot it, check for new
    state, and await it when caught up.

    ``seq_base`` anchors the monotonic per-job sequence numbering used
    by resumable streams: the record at ``steps[i]`` has sequence
    ``seq_base + i``, and a requeue advances ``seq_base`` past the
    abandoned attempt before clearing ``steps``, so a sequence number
    is never reused for different content within one server life.

    ``group`` lists the ids of the jobs dispatched together with this
    one as the lanes of one worker run (a batched submission's uncached
    cells); empty means the job runs alone.
    """

    id: str
    scenario_doc: dict[str, Any]
    key: str
    cost: float
    state: JobState = JobState.QUEUED
    attempts: int = 0
    max_attempts: int = 2
    worker: int | None = None
    group: tuple[str, ...] = ()
    steps: list[dict] = field(default_factory=list)
    seq_base: int = 0
    cell: dict[str, Any] | None = None
    error: str | None = None
    cached: bool = False
    deadline_s: float | None = None
    client: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    elapsed_s: float | None = None
    bell: Any = None  # asyncio.Event, attached by the server

    def summary(self) -> dict[str, Any]:
        """The JSON document returned by ``GET /jobs[/<id>]``."""
        scenario = self.scenario_doc
        return {
            "id": self.id,
            "state": self.state.value,
            "name": scenario.get("name", ""),
            "kind": scenario.get("kind", ""),
            "fidelity": scenario.get("fidelity", ""),
            "key": self.key,
            "attempts": self.attempts,
            "worker": self.worker,
            "steps": len(self.steps),
            "next_seq": self.seq_base + len(self.steps),
            "cached": self.cached,
            "deadline_s": self.deadline_s,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_s": self.elapsed_s,
        }

    def terminal_event(self) -> dict[str, Any]:
        """The stream line that closes this job's watch streams."""
        if self.state is JobState.DONE:
            return {"event": "done", "job": self.summary()}
        if self.state is JobState.FAILED:
            return {
                "event": "failed",
                "error": self.error,
                "job": self.summary(),
            }
        if self.state is JobState.TIMEOUT:
            return {
                "event": "timeout",
                "error": self.error,
                "job": self.summary(),
            }
        return {"event": "cancelled", "job": self.summary()}


def restart_event(attempt: int, reason: str) -> dict[str, Any]:
    """Stream line announcing a requeue: the step stream restarts at 0."""
    return {"event": "restart", "attempt": attempt, "reason": reason}


def is_step_record(doc: dict[str, Any]) -> bool:
    """Whether a decoded stream line is a step record (vs an event)."""
    return "event" not in doc


__all__ = [
    "JobState",
    "JobRecord",
    "TERMINAL_EVENTS",
    "job_key",
    "estimate_cost",
    "restart_event",
    "is_step_record",
]
