"""Timed fault events injected into a simulation run.

A :class:`FaultEvent` is a declarative "at time T, do X" record applied
while :func:`repro.core.engine.drive_schedule` drives the scheduler:
node outages (down/up, optionally killing the jobs caught on the failed
nodes) are applied there, and CDU blockages go to the engine's
``on_blockage`` callback, which routes them to the cooling plant's
:meth:`~repro.cooling.loops.cdu.CduLoopBank.set_blockage` input.

Events are quantized to the engine quantum containing them and applied
*before* that quantum's scheduling pass, so every engine — serial,
batched and surrogate all share ``drive_schedule`` — sees bit-identical
scheduling under the same event stream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from repro.exceptions import SimulationError

#: Recognized event kinds.
EVENT_KINDS = ("node-down", "node-up", "cdu-blockage")

__all__ = ["EVENT_KINDS", "FaultEvent"]


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: a node outage edge or a CDU blockage change.

    ``nodes`` holds global node indices for the node-outage kinds;
    ``cdu_index``/``severity`` parameterize ``cdu-blockage`` (severity
    1.0 restores a clean loop, larger values throttle it).  With
    ``kill_running`` (default) a ``node-down`` kills the jobs occupying
    the failed nodes; without it, only the currently-free subset goes
    down and occupied nodes keep running (soft maintenance).
    """

    time_s: float
    kind: str
    nodes: tuple[int, ...] = ()
    cdu_index: int = 0
    severity: float = 1.0
    kill_running: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "time_s", float(self.time_s))
        if self.time_s < 0.0:
            raise SimulationError(f"event time must be >= 0: {self.time_s}")
        if self.kind not in EVENT_KINDS:
            raise SimulationError(
                f"unknown event kind {self.kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )
        nodes = tuple(int(n) for n in self.nodes)
        if any(n < 0 for n in nodes):
            raise SimulationError("event node indices must be >= 0")
        object.__setattr__(self, "nodes", nodes)
        if self.kind in ("node-down", "node-up") and not nodes:
            raise SimulationError(f"{self.kind} event needs node indices")
        object.__setattr__(self, "cdu_index", int(self.cdu_index))
        object.__setattr__(self, "severity", float(self.severity))
        if self.kind == "cdu-blockage" and self.severity < 1.0:
            raise SimulationError(
                f"blockage severity must be >= 1: {self.severity}"
            )
        object.__setattr__(self, "kill_running", bool(self.kill_running))

    def to_dict(self) -> dict:
        doc: dict = {"time_s": self.time_s, "kind": self.kind}
        if self.kind == "cdu-blockage":
            doc["cdu_index"] = self.cdu_index
            doc["severity"] = self.severity
        else:
            doc["nodes"] = list(self.nodes)
            if not self.kill_running:
                doc["kill_running"] = False
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultEvent":
        if not isinstance(doc, dict):
            raise SimulationError("event document must be an object")
        known = {"time_s", "kind", "nodes", "cdu_index", "severity",
                 "kill_running"}
        unknown = set(doc) - known
        if unknown:
            raise SimulationError(f"unknown event fields: {sorted(unknown)}")
        kwargs = dict(doc)
        if "nodes" in kwargs:
            kwargs["nodes"] = tuple(kwargs["nodes"])
        return cls(**kwargs)


def sort_events(events) -> tuple[FaultEvent, ...]:
    """Events in application order (time, then kind for determinism)."""
    out = []
    for event in events:
        if not isinstance(event, FaultEvent):
            raise SimulationError(
                f"expected FaultEvent, got {type(event).__name__}"
            )
        out.append(event)
    return tuple(sorted(out, key=lambda e: (e.time_s, e.kind, e.nodes)))


__all__.append("sort_events")
