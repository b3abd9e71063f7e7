"""Series export for external dashboards (JSON / CSV / streaming JSONL).

The paper's web dashboard reads simulation results over a REST API
backed by a results database; this module produces the equivalent
payloads — one JSON document or CSV table per run — that such a
dashboard (or a notebook) would consume.

For *live* consumers there is also a streaming JSONL format: one JSON
object per trace quantum, written as the engine yields each
:class:`~repro.core.engine.StepState` (:class:`StepStreamWriter` plugs
straight into the ``progress=`` hook; ``repro run --export-steps``
wires it up from the CLI).  :func:`read_steps_jsonl` round-trips the
file back into :class:`~repro.telemetry.dataset.TimeSeries` objects, so
exported streams feed the same telemetry tooling as measured data.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from repro.core.engine import SimulationResult, StepState
from repro.exceptions import ExaDigiTError
from repro.telemetry.dataset import TimeSeries


def result_to_json(result: SimulationResult, *, indent: int | None = None) -> str:
    """Serialize the headline series + summary of a run to JSON."""
    doc = {
        "summary": {
            "duration_s": result.duration_s,
            "mean_power_w": result.mean_power_w,
            "energy_mwh": result.energy_mwh,
            "mean_loss_w": result.mean_loss_w,
            "mean_chain_efficiency": result.mean_chain_efficiency,
            "jobs": len(result.jobs),
            "jobs_completed": result.scheduler_stats.completed,
        },
        "series": {
            "times_s": result.times_s.tolist(),
            "system_power_w": result.system_power_w.tolist(),
            "loss_w": result.loss_w.tolist(),
            "chain_efficiency": result.chain_efficiency.tolist(),
            "utilization": result.utilization.tolist(),
        },
    }
    for name in ("pue", "htw_supply_temp_c", "num_ct_staged"):
        if name in result.cooling:
            doc["series"][name] = np.asarray(result.cooling[name]).tolist()
    return json.dumps(doc, indent=indent)


def result_to_csv(result: SimulationResult) -> str:
    """Tabulate the scalar per-step series of a run as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    columns: dict[str, np.ndarray] = {
        "time_s": result.times_s,
        "system_power_w": result.system_power_w,
        "loss_w": result.loss_w,
        "chain_efficiency": result.chain_efficiency,
        "utilization": result.utilization,
        "num_running": result.num_running,
    }
    for name, series in sorted(result.cooling.items()):
        arr = np.asarray(series)
        if arr.ndim == 1:
            columns[name] = arr
    n = result.times_s.size
    for name, col in columns.items():
        if col.shape[0] != n:
            raise ExaDigiTError(f"series {name!r} length mismatch")
    writer.writerow(columns.keys())
    for row in zip(*columns.values()):
        writer.writerow([f"{v:.6g}" for v in row])
    return buf.getvalue()


def export_result(
    result: SimulationResult, path: str | Path, *, fmt: str = "json"
) -> Path:
    """Write a run export to disk; returns the written path."""
    path = Path(path)
    if fmt == "json":
        path = path.with_suffix(".json")
        path.write_text(result_to_json(result, indent=2))
    elif fmt == "csv":
        path = path.with_suffix(".csv")
        path.write_text(result_to_csv(result))
    else:
        raise ExaDigiTError(f"unknown export format {fmt!r}")
    return path


#: Scalar StepState attributes exported per JSONL record.
STEP_SCALARS = (
    "time_s",
    "system_power_w",
    "loss_w",
    "sivoc_loss_w",
    "rectifier_loss_w",
    "chain_efficiency",
    "utilization",
    "num_running",
)


def step_record(step: StepState) -> dict:
    """One JSON-safe document for one engine step.

    Carries ``index``, every :data:`STEP_SCALARS` attribute, and each
    scalar recorded cooling output under a ``cooling.`` prefix.
    Non-finite floats encode as ``null`` (strict JSON; consumers like
    ``jq`` reject bare ``NaN`` tokens).
    """
    doc: dict = {"index": step.index}
    for name in STEP_SCALARS:
        value = getattr(step, name)
        value = int(value) if name == "num_running" else float(value)
        doc[name] = (
            value
            if not isinstance(value, float) or math.isfinite(value)
            else None
        )
    for name, series in sorted(step.cooling.items()):
        arr = np.asarray(series)
        if arr.ndim == 0:
            value = float(arr)
            doc[f"cooling.{name}"] = value if math.isfinite(value) else None
    return doc


def encode_step_line(record: dict | StepState) -> str:
    """Encode one step (or any JSON event document) as one NDJSON line.

    The single wire codec shared by :class:`StepStreamWriter`, the
    ``repro.service`` NDJSON/websocket transports, and the service's
    persisted step files: compact separators, no trailing newline.
    Floats round-trip bit-exactly through JSON, so a decoded line
    compares equal to the :func:`step_record` of the originating
    :class:`~repro.core.engine.StepState`.
    """
    if isinstance(record, StepState):
        record = step_record(record)
    return json.dumps(record, separators=(",", ":"))


def decode_step_line(line: str) -> dict | None:
    """Decode one NDJSON line; None for blank or torn (partial) lines.

    The inverse of :func:`encode_step_line`.  ``null`` fields are kept
    as None (transport truth); :func:`iter_step_records` layers the
    None→NaN restoration used by the telemetry tooling on top.
    """
    line = line.strip()
    if not line:
        return None
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


class StepStreamWriter:
    """Stream :class:`StepState` records to a JSONL file or descriptor.

    Usable directly as a ``progress=`` callback and as a context
    manager::

        with StepStreamWriter("steps.jsonl") as writer:
            scenario.run(twin, progress=writer)

    Each record is written and flushed as its step is produced, so an
    external dashboard can tail the file while the simulation runs.
    A path target is opened (and closed) by the writer; an open
    file-like target is flushed but left open for its owner.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if hasattr(target, "write"):
            self._fh: IO[str] = target  # type: ignore[assignment]
            self._owns = False
            self.path = None
        else:
            self.path = Path(target)
            self._fh = self.path.open("w", encoding="utf-8")
            self._owns = True
        self.count = 0

    def write(self, step: StepState | dict) -> None:
        self._fh.write(encode_step_line(step) + "\n")
        self._fh.flush()
        self.count += 1

    __call__ = write

    def close(self) -> None:
        if self._owns and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "StepStreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def export_steps_jsonl(
    steps: Iterable[StepState], target: str | Path | IO[str]
) -> int:
    """Drain a step iterator into a JSONL target; returns records written."""
    with StepStreamWriter(target) as writer:
        for step in steps:
            writer.write(step)
        return writer.count


def iter_step_records(path: str | Path) -> Iterator[dict]:
    """Yield the parsed records of a step JSONL file, in file order.

    Tolerant of a torn final line (a consumer may read while the
    producer is mid-append); ``null`` fields come back as NaN.
    """
    path = Path(path)
    if not path.exists():
        raise ExaDigiTError(f"no step export at {path}")
    with path.open("r", encoding="utf-8") as fh:
        for raw in fh:
            doc = decode_step_line(raw)
            if doc is None:
                continue  # blank, or torn tail of an in-progress append
            yield {
                k: (math.nan if v is None else v) for k, v in doc.items()
            }


def read_steps_jsonl(path: str | Path) -> dict[str, TimeSeries]:
    """Reload a step JSONL export as telemetry series.

    Returns one :class:`~repro.telemetry.dataset.TimeSeries` per
    exported field (times from ``time_s``), so a streamed run feeds the
    same replay/validation tooling as measured telemetry — the
    round-trip counterpart of :class:`StepStreamWriter`.
    """
    records = list(iter_step_records(path))
    if not records:
        raise ExaDigiTError(f"step export {path} holds no records")
    times = np.asarray([r["time_s"] for r in records], dtype=np.float64)
    fields = [
        k for k in records[0] if k not in ("index", "time_s")
    ]
    out: dict[str, TimeSeries] = {}
    for name in fields:
        values = np.asarray(
            [r.get(name, math.nan) for r in records], dtype=np.float64
        )
        units = "W" if name.endswith("_w") else ""
        out[name] = TimeSeries(times, values, units)
    return out


__all__ = [
    "result_to_json",
    "result_to_csv",
    "export_result",
    "STEP_SCALARS",
    "step_record",
    "encode_step_line",
    "decode_step_line",
    "StepStreamWriter",
    "export_steps_jsonl",
    "iter_step_records",
    "read_steps_jsonl",
]
