"""Persisted campaign artifacts: a JSONL + manifest directory per campaign.

A campaign directory is the durable record of one sweep campaign and
the unit of cross-PR comparison: run a 12-cell grid today, optimize the
engine next month, and diff the two stored comparison tables without
re-simulating the baseline.  Layout::

    my-campaign/
        manifest.json      # provenance + the frozen cell list
        results.jsonl      # one line per completed cell, append-only

``manifest.json`` is written once at creation and freezes the campaign:
the declared (un-expanded) scenarios, the expanded cell list in run
order, the full system spec document, and provenance (spec SHA-256, git
revision, package version, creation time).  ``results.jsonl`` grows one
line per finished cell — an interrupted campaign is just a shorter
file, and resume replays only the missing indices.

Each result line stores the cell's scenario document, the raw summary
metrics (:func:`~repro.core.summary.result_metrics`), the end-of-run
statistics, the what-if comparison when present, and the per-step
scalar series.  Floats persist as JSON numbers, which round-trip
bit-exactly, so :meth:`CampaignStore.load` reproduces the live
``comparison_table()`` byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

try:  # POSIX advisory locks; fall back to sentinel files elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.config.loader import dumps_system, loads_system
from repro.config.schema import SystemSpec
from repro.core.whatif import ScenarioComparison
from repro.core.stats import RunStatistics
from repro.core.summary import (
    comparison_from_doc,
    comparison_to_doc,
    result_metrics,
    result_series,
    series_from_doc,
    statistics_from_doc,
    statistics_to_doc,
)
from repro.exceptions import ScenarioError
from repro.scenarios.base import Scenario
from repro.scenarios.result import ScenarioResult, format_summary_row
from repro.scenarios.suite import SuiteResult

#: On-disk format version, bumped on breaking layout changes.
ARTIFACT_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"
LOCK_NAME = ".lock"


class StoreLock:
    """Advisory inter-process lock on one campaign directory.

    Serializes manifest rewrites and the append heal-check across
    concurrent writer processes (the service worker pool shares one
    store).  POSIX ``flock`` where available; elsewhere a sentinel
    file acquired with ``O_EXCL`` and a bounded spin.  Reentrant within
    one process is NOT supported — hold it briefly.
    """

    def __init__(self, directory: str | Path, *, timeout_s: float = 30.0) -> None:
        self.path = Path(directory) / LOCK_NAME
        self.timeout_s = timeout_s
        self._fh = None
        self._sentinel: Path | None = None

    def __enter__(self) -> "StoreLock":
        if fcntl is not None:
            self._fh = open(self.path, "a+b")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
            return self
        sentinel = self.path.with_suffix(".pid")
        deadline = time.monotonic() + self.timeout_s
        while True:  # pragma: no cover - non-POSIX fallback
            try:
                fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                self._sentinel = sentinel
                return self
            except FileExistsError:
                if time.monotonic() > deadline:
                    raise ScenarioError(
                        f"timed out acquiring store lock {sentinel}"
                    ) from None
                time.sleep(0.02)

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None
        if self._sentinel is not None:  # pragma: no cover - non-POSIX
            try:
                self._sentinel.unlink()
            except OSError:
                pass
            self._sentinel = None


def spec_sha256(spec: SystemSpec) -> str:
    """Stable content hash of a system spec (its canonical JSON form)."""
    text = dumps_system(spec, indent=None)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_revision(cwd: str | Path | None = None) -> str | None:
    """Current git commit hash, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


@dataclass
class StoredScenarioResult:
    """One reloaded campaign cell: the persisted view of a scenario run.

    Quacks like :class:`~repro.scenarios.result.ScenarioResult` for
    everything a :class:`~repro.scenarios.suite.SuiteResult` needs —
    ``name`` / ``kind`` / ``metrics()`` / ``summary_row()`` — plus the
    reloaded statistics, comparison, and per-step series.  It does not
    carry the raw engine result (jobs and 2-D CDU series are not
    persisted); rerun the scenario if you need those.
    """

    scenario: Scenario
    metrics_doc: dict[str, float]
    statistics: RunStatistics | None = None
    comparison: ScenarioComparison | None = None
    series: dict[str, np.ndarray] = field(default_factory=dict)

    #: Reloaded cells have no live engine result.
    result = None

    @property
    def name(self) -> str:
        return self.scenario.name

    @property
    def kind(self) -> str:
        return self.scenario.kind

    def metrics(self) -> dict[str, float]:
        """The persisted raw summary scalars (bit-exact reload)."""
        return dict(self.metrics_doc)

    def summary_row(self) -> dict[str, str]:
        """Same formatter as the live path — tables reload identically."""
        return format_summary_row(
            self.name, self.kind, self.metrics_doc, self.comparison
        )


def result_to_cell_doc(index: int, outcome: Any) -> dict[str, Any]:
    """Serialize one finished cell to its ``results.jsonl`` line document.

    ``outcome`` is a live :class:`ScenarioResult` (or an already-stored
    one being re-recorded, e.g. when copying campaigns).
    """
    if isinstance(outcome, StoredScenarioResult):
        doc: dict[str, Any] = {
            "index": index,
            "scenario": outcome.scenario.to_dict(),
            "metrics": dict(outcome.metrics_doc),
            "statistics": (
                statistics_to_doc(outcome.statistics)
                if outcome.statistics is not None
                else None
            ),
            "comparison": (
                comparison_to_doc(outcome.comparison)
                if outcome.comparison is not None
                else None
            ),
            "series": {
                k: _nulled_list(v) for k, v in outcome.series.items()
            },
        }
        return doc
    return {
        "index": index,
        "scenario": outcome.scenario.to_dict(),
        "metrics": result_metrics(outcome.result),
        "statistics": (
            statistics_to_doc(outcome.statistics)
            if outcome.statistics is not None
            else None
        ),
        "comparison": (
            comparison_to_doc(outcome.comparison)
            if outcome.comparison is not None
            else None
        ),
        "series": (
            {
                k: _nulled_list(v)
                for k, v in result_series(outcome.result).items()
            }
            if outcome.result is not None
            else {}
        ),
    }


def _nulled_nans(value: Any) -> Any:
    """Recursively map non-finite floats to None (strict-JSON encoding).

    ``json.dumps`` would otherwise emit bare ``NaN`` tokens, which any
    non-Python consumer (``jq``, JavaScript, strict parsers) rejects;
    artifacts must stay plain JSON.  :func:`_restored_nans` inverts.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _nulled_nans(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nulled_nans(v) for v in value]
    return value


def _nulled_list(values: np.ndarray) -> list:
    """A 1-D series as a list with its non-finite values as None:
    :func:`_nulled_nans` of ``values.tolist()``, mapped once per array
    (and not at all when every value is finite)."""
    out = values.tolist()
    finite = np.isfinite(values)
    if not finite.all():
        for i in np.flatnonzero(~finite).tolist():
            out[i] = None
    return out


def _restored_nans(doc: dict[str, Any]) -> dict[str, Any]:
    """Map None values of a flat numeric document back to NaN."""
    return {k: math.nan if v is None else v for k, v in doc.items()}


def cell_doc_to_result(doc: dict[str, Any]) -> StoredScenarioResult:
    """Rebuild a :class:`StoredScenarioResult` from its JSONL document."""
    return StoredScenarioResult(
        scenario=Scenario.from_dict(doc["scenario"]),
        metrics_doc=_restored_nans(doc.get("metrics", {})),
        statistics=(
            statistics_from_doc(_restored_nans(doc["statistics"]))
            if doc.get("statistics") is not None
            else None
        ),
        comparison=(
            comparison_from_doc(_restored_nans(doc["comparison"]))
            if doc.get("comparison") is not None
            else None
        ),
        series=series_from_doc(doc.get("series", {})),
    )


def _cell_entry(index: int, scenario: Scenario) -> dict[str, Any]:
    """One manifest cell document, with workload provenance when offered.

    Scenarios that expose a ``workload_provenance()`` method (the
    ``generated`` kind) get a ``workloads`` key mapping role fields to
    generator spec-SHAs, so every artifact records the exact
    content-addressed inputs that produced it.
    """
    entry: dict[str, Any] = {
        "index": index,
        "name": scenario.name,
        "scenario": scenario.to_dict(),
    }
    prov = getattr(scenario, "workload_provenance", None)
    if callable(prov):
        workloads = prov()
        if workloads:
            entry["workloads"] = workloads
    return entry


class CampaignStore:
    """The artifact directory of one campaign (manifest + results JSONL).

    Create with :meth:`create` (writes the manifest, freezing the cell
    list) or attach to an existing directory with :meth:`open`.  Record
    finished cells with :meth:`record`; reload everything with
    :meth:`load`.  Appends are line-atomic enough for crash recovery: a
    torn final line is detected and ignored on read, so an interrupted
    campaign resumes from its last complete cell.
    """

    def __init__(self, path: str | Path, manifest: dict[str, Any]) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self._cells: list[Scenario] | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        scenarios: list[Scenario],
        spec: SystemSpec,
        *,
        name: str | None = None,
    ) -> "CampaignStore":
        """Initialize a campaign directory and write its manifest.

        ``scenarios`` is the declared list; sweeps are expanded here and
        the resulting cell order is frozen in the manifest so resume and
        compare agree on cell indices forever after.
        """
        from repro.scenarios.library import BaseSweepScenario

        path = Path(path)
        if (path / MANIFEST_NAME).exists():
            raise ScenarioError(
                f"campaign already exists at {path}; open() or resume it"
            )
        if not scenarios:
            raise ScenarioError("campaign needs at least one scenario")
        cells: list[Scenario] = []
        for s in scenarios:
            if isinstance(s, BaseSweepScenario):
                cells.extend(s.expand())
            else:
                cells.append(s)
        manifest = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "name": name or path.name,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "provenance": {
                "spec_sha256": spec_sha256(spec),
                # Anchor the rev lookup to the package source, not the
                # process CWD — a pip-installed repro run from inside
                # some other git checkout must not record that repo's
                # HEAD as the simulator revision.
                "git_rev": git_revision(cwd=Path(__file__).parent),
                "repro_version": _package_version(),
            },
            "system": json.loads(dumps_system(spec, indent=None)),
            "scenarios": [s.to_dict() for s in scenarios],
            "cells": [_cell_entry(i, c) for i, c in enumerate(cells)],
        }
        path.mkdir(parents=True, exist_ok=True)
        (path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        (path / RESULTS_NAME).touch()
        return cls(path, manifest)

    @classmethod
    def create_open_ended(
        cls,
        path: str | Path,
        spec: SystemSpec,
        *,
        name: str | None = None,
    ) -> "CampaignStore":
        """Initialize an *open-ended* store: no frozen cell list.

        Where :meth:`create` freezes a sweep's cells up front, an
        open-ended store starts empty and grows one cell at a time via
        :meth:`append_cell` — the persistence mode of the twin service,
        whose jobs arrive over the network for the life of the server.
        Everything else (provenance, results JSONL, reload) is shared
        with frozen campaigns, so ``repro campaign compare`` reads a
        service store unchanged.
        """
        path = Path(path)
        if (path / MANIFEST_NAME).exists():
            raise ScenarioError(
                f"campaign already exists at {path}; open() or resume it"
            )
        manifest = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "name": name or path.name,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "open_ended": True,
            "provenance": {
                "spec_sha256": spec_sha256(spec),
                "git_rev": git_revision(cwd=Path(__file__).parent),
                "repro_version": _package_version(),
            },
            "system": json.loads(dumps_system(spec, indent=None)),
            "scenarios": [],
            "cells": [],
        }
        path.mkdir(parents=True, exist_ok=True)
        (path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        (path / RESULTS_NAME).touch()
        return cls(path, manifest)

    @property
    def open_ended(self) -> bool:
        """Whether this store grows cells dynamically (service mode)."""
        return bool(self.manifest.get("open_ended", False))

    def append_cell(
        self, scenario: Scenario, *, meta: dict[str, Any] | None = None
    ) -> int:
        """Append one cell to an open-ended store; returns its index.

        The manifest is re-read, extended, and atomically replaced
        under the store lock, so concurrent appender processes never
        lose cells or hand out duplicate indices.  ``meta`` attaches
        extra fields to the manifest cell entry (the service stores its
        content-addressed job key there for result-cache lookups).
        """
        if not self.open_ended:
            raise ScenarioError(
                "append_cell needs an open-ended store; frozen campaigns "
                "fix their cells at create()"
            )
        manifest_path = self.path / MANIFEST_NAME
        with StoreLock(self.path):
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            cells = manifest.setdefault("cells", [])
            index = len(cells)
            entry = _cell_entry(index, scenario)
            if meta:
                entry.update(meta)
            cells.append(entry)
            tmp = manifest_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
            os.replace(tmp, manifest_path)
            self.manifest = manifest
            self._cells = None
        return index

    def reload_manifest(self) -> None:
        """Re-read the manifest (another process may have appended)."""
        manifest_path = self.path / MANIFEST_NAME
        self.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        self._cells = None

    @classmethod
    def open(cls, path: str | Path) -> "CampaignStore":
        """Attach to an existing campaign directory."""
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise ScenarioError(f"no campaign manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"corrupt campaign manifest: {exc}") from exc
        version = manifest.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ScenarioError(
                f"unsupported campaign format_version {version!r} "
                f"(this build reads {ARTIFACT_FORMAT_VERSION})"
            )
        return cls(path, manifest)

    @staticmethod
    def exists(path: str | Path) -> bool:
        """Whether ``path`` holds a campaign manifest."""
        return (Path(path) / MANIFEST_NAME).exists()

    # -- manifest views --------------------------------------------------------

    @property
    def name(self) -> str:
        return self.manifest.get("name", self.path.name)

    @property
    def provenance(self) -> dict[str, Any]:
        return dict(self.manifest.get("provenance", {}))

    def system_spec(self) -> SystemSpec:
        """Rebuild the system spec frozen into the manifest."""
        return loads_system(json.dumps(self.manifest["system"]))

    def cells(self) -> list[Scenario]:
        """The frozen expanded cell list, in run order."""
        if self._cells is None:
            self._cells = [
                Scenario.from_dict(entry["scenario"])
                for entry in self.manifest.get("cells", [])
            ]
        return self._cells

    def declared_scenarios(self) -> list[Scenario]:
        """The un-expanded scenario list the campaign was created from."""
        return [
            Scenario.from_dict(doc)
            for doc in self.manifest.get("scenarios", [])
        ]

    # -- results ---------------------------------------------------------------

    @property
    def results_path(self) -> Path:
        return self.path / RESULTS_NAME

    def record(
        self, index: int, outcome: Any, *, extra: dict[str, Any] | None = None
    ) -> None:
        """Append one finished cell to ``results.jsonl`` (durable write).

        Safe under concurrent writer *processes* (the service worker
        pool shares one store): the whole record goes down in a single
        ``write(2)`` on a descriptor opened with ``O_APPEND``, so
        concurrent appends never interleave mid-line, and the
        torn-tail heal check runs under the directory's
        :class:`StoreLock`.  If a previous process died mid-append the
        file may end in an unterminated line; a newline is prepended in
        the same atomic write so the torn fragment stays isolated (and
        ignored on read) instead of corrupting this record.

        ``extra`` merges additional top-level fields into the line
        document (the service records its job key and timings there).
        """
        n = len(self.cells())
        if not 0 <= index < n:
            raise ScenarioError(
                f"cell index {index} out of range for {n}-cell campaign"
            )
        doc = result_to_cell_doc(index, outcome)
        if extra:
            for key in extra:
                if key in doc:
                    raise ScenarioError(
                        f"extra field {key!r} collides with a cell field"
                    )
            doc.update(extra)
        # The series lists are strict JSON as built (_nulled_list).
        strict = {
            k: v if k == "series" else _nulled_nans(v) for k, v in doc.items()
        }
        line = json.dumps(strict, allow_nan=False)
        with StoreLock(self.path):
            heal_newline = False
            if self.results_path.exists() and self.results_path.stat().st_size:
                with self.results_path.open("rb") as fh:
                    fh.seek(-1, 2)  # SEEK_END
                    heal_newline = fh.read(1) != b"\n"
            payload = ("\n" if heal_newline else "") + line + "\n"
            fd = os.open(
                self.results_path,
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                os.write(fd, payload.encode("utf-8"))
            finally:
                os.close(fd)

    def _iter_docs(self):
        """Yield ``(index, doc)`` per valid ``results.jsonl`` record.

        The single definition of line validity: blank lines and the
        torn tail of an interrupted append are skipped (earlier lines
        are always intact because records are appended whole and
        newline-terminated), and records need an integer ``index``.
        """
        if not self.results_path.exists():
            return
        with self.results_path.open("r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # torn tail of an interrupted append
                index = doc.get("index")
                if isinstance(index, int):
                    yield index, doc

    def completed(self) -> dict[int, StoredScenarioResult]:
        """Reloaded results keyed by cell index (first record wins)."""
        out: dict[int, StoredScenarioResult] = {}
        for index, doc in self._iter_docs():
            if index not in out:
                out[index] = cell_doc_to_result(doc)
        return out

    def completed_indices(self) -> set[int]:
        """Indices of cells that already have a persisted result.

        Parses each line's document but skips the scenario/series
        reconstruction :meth:`completed` does — use this when only the
        done-set is needed (resume banners, ``pending()``).
        """
        return {index for index, _ in self._iter_docs()}

    def is_complete(self) -> bool:
        """Whether every manifest cell has a persisted result."""
        return self.completed_indices() >= set(range(len(self.cells())))

    def load(self) -> SuiteResult:
        """Reload the campaign as a :class:`SuiteResult`, no simulation.

        Results come back in cell order; cells not yet run are simply
        absent (compare on a partial campaign shows what is done).
        The rendered ``comparison_table()`` is byte-identical to the
        table of the live run that produced the artifacts.
        """
        done = self.completed()
        results = [done[i] for i in sorted(done)]
        return SuiteResult(results=results)  # type: ignore[arg-type]


def _package_version() -> str | None:
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - defensive
        return None


__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "MANIFEST_NAME",
    "RESULTS_NAME",
    "LOCK_NAME",
    "StoreLock",
    "CampaignStore",
    "StoredScenarioResult",
    "result_to_cell_doc",
    "cell_doc_to_result",
    "spec_sha256",
    "git_revision",
]
