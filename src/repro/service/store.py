"""Persisted job results + step streams for the twin service.

Layout — a superset of a campaign artifact directory::

    service-store/
        manifest.json       # open-ended CampaignStore manifest (cells
                            # appended as jobs arrive, job key per cell)
        results.jsonl       # one line per finished job (cell doc + key)
        steps/<key>.jsonl   # the full per-quantum step stream of a key
        .lock               # StoreLock (shared with worker processes)

Because the spine *is* a :class:`~repro.scenarios.artifacts.
CampaignStore` (open-ended mode), every existing consumer works on a
service store unchanged: ``repro campaign compare <dir>`` tabulates
everything the server ever ran, and ``surrogate fit --from-campaign``
can train on served traffic.

The store doubles as the server's **result cache**: jobs are content-
addressed by :func:`~repro.service.protocol.job_key`, and a repeat
submission replays the persisted step stream (bit-identical — JSON
floats round-trip exactly) without touching the worker pool.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.exceptions import ScenarioError
from repro.obs.registry import get_registry
from repro.scenarios.artifacts import (
    CampaignStore,
    cell_doc_to_result,
    spec_sha256,
)
from repro.scenarios.base import Scenario
from repro.config.schema import SystemSpec
from repro.viz.export import (
    StepStreamWriter,
    decode_step_line,
    encode_step_line,
)

STEPS_DIR = "steps"
CHECKPOINT = "checkpoint.json"


class ServiceStore:
    """Durable record + result cache of one twin server.

    ``metrics`` is an optional :class:`~repro.obs.registry.
    MetricsRegistry`; the owning server passes its own so store traffic
    (appends, replays) shows up under that server's ``/metrics``.
    Without one, the process-global registry applies (a no-op by
    default).
    """

    def __init__(
        self, path: str | Path, spec: SystemSpec, *, metrics=None
    ) -> None:
        self._metrics = metrics if metrics is not None else get_registry()
        path = Path(path)
        sha = spec_sha256(spec)
        if CampaignStore.exists(path):
            self.campaign = CampaignStore.open(path)
            if not self.campaign.open_ended:
                raise ScenarioError(
                    f"{path} is a frozen campaign, not a service store; "
                    "point the server at a fresh directory"
                )
            stored = self.campaign.provenance.get("spec_sha256")
            if stored != sha:
                raise ScenarioError(
                    f"service store {path} was recorded for spec "
                    f"{stored!r}, server is running {sha!r}; results "
                    "would not be comparable — use another directory"
                )
        else:
            self.campaign = CampaignStore.create_open_ended(path, spec)
        self.path = self.campaign.path
        self.steps_dir = self.path / STEPS_DIR
        self.steps_dir.mkdir(exist_ok=True)
        self.healed = self._heal_steps_dir()
        # key -> latest persisted line doc (built once; record() updates).
        self._index: dict[str, dict[str, Any]] = {}
        for _, doc in self.campaign._iter_docs():
            key = doc.get("key")
            if isinstance(key, str):
                self._index[key] = doc

    def _heal_steps_dir(self) -> int:
        """Repair torn step streams left by a crash mid-write.

        Live streaming appends one line per step, so a SIGKILL can
        leave the final line half-written (and ``.jsonl.tmp`` leftovers
        from interrupted atomic rewrites).  Truncate any file that does
        not end in a newline back to its last complete line — the same
        discipline the campaign ``results.jsonl`` applies — and sweep
        the temp files.  Returns the number of files repaired.
        """
        healed = 0
        for tmp in self.steps_dir.glob("*.jsonl.tmp"):
            tmp.unlink()
            healed += 1
        for path in self.steps_dir.glob("*.jsonl"):
            size = path.stat().st_size
            if size == 0:
                continue
            with path.open("rb+") as fh:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) == b"\n":
                    continue
                blob = path.read_bytes()
                keep = blob.rfind(b"\n") + 1  # 0 when no newline at all
                fh.truncate(keep)
            healed += 1
        return healed

    def __len__(self) -> int:
        return len(self._index)

    def steps_path(self, key: str) -> Path:
        return self.steps_dir / f"{key}.jsonl"

    # -- result cache ----------------------------------------------------------

    def lookup(self, key: str) -> tuple[dict[str, Any], list[dict]] | None:
        """(cell line doc, step records) for a key, or None.

        Only keys whose step stream was fully persisted count as hits —
        a cached job must replay the exact stream a fresh run would
        produce.  When the index line carries ``n_steps``, a stream
        whose surviving line count disagrees (a healed torn tail, a
        truncated copy) is a miss, never a short replay.
        """
        doc = self._index.get(key)
        if doc is None:
            return None
        steps_path = self.steps_path(key)
        if not steps_path.exists():
            return None
        steps: list[dict] = []
        with steps_path.open("r", encoding="utf-8") as fh:
            for raw in fh:
                record = decode_step_line(raw)
                if record is not None:
                    steps.append(record)
        expected = doc.get("n_steps")
        if expected is not None and len(steps) != int(expected):
            return None
        self._metrics.counter("repro_store_replays_total").inc()
        return doc, steps

    def record(
        self,
        key: str,
        scenario: Scenario,
        cell_doc: dict[str, Any],
        steps: list[dict],
        *,
        elapsed_s: float | None = None,
        stream_ready: bool = False,
    ) -> int:
        """Persist one finished job; returns its campaign cell index.

        The step stream is written to a temp file and atomically
        renamed, so :meth:`lookup` never sees a half-written stream;
        the cell line append is the hardened
        :meth:`CampaignStore.record` single-write path.  Pass
        ``stream_ready=True`` when a :meth:`open_step_stream` writer
        already holds the complete stream on disk — the rewrite is
        skipped and only the index line (with its ``n_steps`` count)
        lands.  Torn live streams are caught by :meth:`lookup`'s count
        check, so a crash between the live append and this index write
        can only cause a re-run, never a short replay.
        """
        index = self.campaign.append_cell(scenario, meta={"key": key})
        if not stream_ready:
            tmp = self.steps_path(key).with_suffix(".jsonl.tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                for record in steps:
                    fh.write(encode_step_line(record) + "\n")
            os.replace(tmp, self.steps_path(key))
        stored = cell_doc_to_result({**cell_doc, "index": index})
        extra: dict[str, Any] = {"key": key, "n_steps": len(steps)}
        if elapsed_s is not None:
            extra["elapsed_s"] = float(elapsed_s)
        self.campaign.record(index, stored, extra=extra)
        self._index[key] = {**cell_doc, "index": index, **extra}
        self._metrics.counter("repro_store_appends_total").inc()
        return index

    # -- live step streaming ---------------------------------------------------

    def open_step_stream(self, key: str) -> "LiveStepStream":
        """An append-as-you-go writer for a key's step stream.

        The server appends each step record as it arrives, so the
        persisted prefix always trails the live stream by at most one
        flush — that prefix is what resumable watchers replay after a
        server death.  The writer starts from a truncated file (a fresh
        attempt owns the whole stream).
        """
        return LiveStepStream(self.steps_path(key))

    # -- drain checkpoints -----------------------------------------------------

    def save_checkpoint(self, doc: dict[str, Any]) -> Path:
        """Atomically persist the drain checkpoint document."""
        path = self.path / CHECKPOINT
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path

    def take_checkpoint(self) -> dict[str, Any] | None:
        """Consume the drain checkpoint: return its document and delete it."""
        path = self.path / CHECKPOINT
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            doc = None
        path.unlink()
        return doc if isinstance(doc, dict) else None


class LiveStepStream(StepStreamWriter):
    """Append-per-step writer for ``steps/<key>.jsonl``.

    Each :meth:`write` is one encoded line plus a flush — durable
    enough that a SIGKILL loses at most the in-flight line, which the
    next open's torn-tail heal removes.  ``abort()`` discards the
    partial stream (used when a job fails or is requeued mid-attempt).
    """

    def abort(self) -> None:
        """Close and remove the partial stream."""
        self.close()
        self.path.unlink(missing_ok=True)


__all__ = ["LiveStepStream", "ServiceStore", "CHECKPOINT", "STEPS_DIR"]
