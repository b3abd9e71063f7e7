"""Batch experiment runner: N scenarios, one twin, optional parallelism.

An :class:`ExperimentSuite` resolves the system spec once, flattens any
sweep scenarios into their concrete children, and executes every
scenario through :func:`run_cells`, the cell executor suites and
campaigns share: every cell runs in a lane group of one
:class:`~repro.batch.engine.BatchedEngine` (``suite.run(workers=4)``
spreads one-cell groups over worker processes).
Scenarios are declarative and seeded, so every path is bit-identical
to a direct ``scenario.run(twin)``.

The returned :class:`SuiteResult` keeps per-scenario artifacts in
submission order and renders a cross-scenario comparison table.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.config.schema import SystemSpec
from repro.exceptions import ScenarioError
from repro.scenarios.base import Scenario, WorkloadMemo
from repro.scenarios.library import BaseSweepScenario
from repro.scenarios.result import ScenarioResult
from repro.scenarios.twin import DigitalTwin, as_twin, rebuild_twin


#: This worker process's twin, rebuilt once from the driving twin's
#: recipe by the pool initializer (:func:`_start_worker`).
_worker_twin: DigitalTwin | None = None


def _start_worker(recipe) -> None:
    """Pool initializer: rebuild the driving twin in this process."""
    global _worker_twin
    _worker_twin = rebuild_twin(recipe)


def _run_worker_group(group: list[tuple[int, Scenario]]):
    """Pool task: one lane group on this process's twin; returns its
    ``(index, outcome)`` pairs."""
    done: list[tuple[int, ScenarioResult]] = []
    _run_group(
        _worker_twin,
        group,
        lambda index, _, outcome: done.append((index, outcome)),
    )
    return done


def _run_group(
    twin: DigitalTwin,
    group: list[tuple[int, Scenario]],
    on_result: Callable[[int, Scenario, ScenarioResult], None],
    workloads: WorkloadMemo | None = None,
) -> None:
    """Run one lane group of ``(index, scenario)`` cells through one
    :class:`~repro.batch.engine.BatchedEngine`, handing each outcome
    over as the cell's last lane ends."""
    from repro.batch import BatchedEngine

    BatchedEngine([scenario for _, scenario in group], twin).run(
        on_result=lambda i, outcome: on_result(*group[i], outcome),
        workloads=workloads,
    )


def check_execution(execution: str) -> None:
    """Reject an ``execution`` backend :func:`run_cells` does not know."""
    if execution not in ("serial", "batched"):
        raise ScenarioError(
            f"unknown execution backend {execution!r} "
            "(expected 'serial' or 'batched')"
        )


def run_cells(
    twin: DigitalTwin,
    pending: list[tuple[int, Scenario]],
    *,
    workers: int = 1,
    execution: str = "serial",
    on_result: Callable[[int, Scenario, ScenarioResult], None],
) -> None:
    """Run ``(index, scenario)`` cells on ``twin``, handing each outcome
    to ``on_result(index, scenario, outcome)`` as it finishes.

    The cells are partitioned into lane groups, each run by one
    :class:`~repro.batch.engine.BatchedEngine`:
    ``execution="serial"`` makes one group per cell and ``"batched"``
    one group of every cell, whose outcomes leave as each cell's last
    lane ends.  The groups run in order in this process, sharing one
    :class:`~repro.scenarios.base.WorkloadMemo`, or, with
    ``workers > 1`` and more than one group, on worker processes, each
    of which rebuilds ``twin`` once from its
    :meth:`~repro.scenarios.twin.DigitalTwin.recipe`.  Every path is
    bit-identical to ``scenario.run(twin)``; a group stops at its first
    error.
    """
    check_execution(execution)
    if not pending:
        return
    groups = [pending] if execution == "batched" else [[c] for c in pending]
    if workers <= 1 or len(groups) == 1:
        memo = WorkloadMemo()
        for group in groups:
            _run_group(twin, group, on_result, memo)
        return
    scenarios = dict(pending)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(groups)),
        initializer=_start_worker,
        initargs=(twin.recipe(),),
    ) as pool:
        futures = [pool.submit(_run_worker_group, group) for group in groups]
        for future in as_completed(futures):
            for index, outcome in future.result():
                on_result(index, scenarios[index], outcome)


@dataclass
class SuiteResult:
    """Ordered per-scenario artifacts + a comparison table."""

    results: list[ScenarioResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self.results)

    def __getitem__(self, key: int | str) -> ScenarioResult:
        if isinstance(key, int):
            return self.results[key]
        for r in self.results:
            if r.name == key:
                return r
        raise KeyError(key)

    def comparison_table(self) -> str:
        """Aligned cross-scenario table of the headline metrics."""
        if not self.results:
            return "(empty suite)"
        rows = [r.summary_row() for r in self.results]
        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        widths = {
            c: max(len(c), *(len(row.get(c, "-")) for row in rows))
            for c in columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        rule = "  ".join("-" * widths[c] for c in columns)
        lines = [header, rule]
        for row in rows:
            lines.append(
                "  ".join(row.get(c, "-").rjust(widths[c]) for c in columns)
            )
        return "\n".join(lines)


class ExperimentSuite:
    """Run many scenarios against one digital twin.

    Parameters
    ----------
    system:
        Twin, spec, builtin name, or JSON path — resolved once and
        shared by every scenario in the suite.
    scenarios:
        Initial scenario list; :meth:`add` appends more fluently.
    """

    def __init__(
        self,
        system: DigitalTwin | SystemSpec | str | Path = "frontier",
        scenarios: Iterable[Scenario] = (),
    ) -> None:
        self.twin = as_twin(system)
        self.scenarios: list[Scenario] = list(scenarios)
        for s in self.scenarios:
            self._check(s)

    def _check(self, scenario: Scenario) -> None:
        if not isinstance(scenario, Scenario):
            raise ScenarioError(
                f"ExperimentSuite takes Scenario objects, got "
                f"{type(scenario).__name__}"
            )

    def add(self, scenario: Scenario) -> "ExperimentSuite":
        """Append a scenario; returns self for chaining."""
        self._check(scenario)
        self.scenarios.append(scenario)
        return self

    def expanded(self) -> list[Scenario]:
        """The flat run list: sweep-family scenarios replaced by their
        children (any :class:`BaseSweepScenario` subclass expands)."""
        flat: list[Scenario] = []
        for s in self.scenarios:
            if isinstance(s, BaseSweepScenario):
                flat.extend(s.expand())
            else:
                flat.append(s)
        return flat

    def run(
        self,
        workers: int = 1,
        *,
        progress: Callable[[Scenario, int, int], None] | None = None,
    ) -> SuiteResult:
        """Execute every scenario; ``workers > 1`` uses process parallelism.

        Cells run through :func:`run_cells` as one-cell lane groups, in
        this process sharing one workload memo, or spread over
        ``workers`` processes.  Results come back in submission order,
        bit-identical to a ``workers=1`` run.
        ``progress(scenario, done, total)`` fires as scenarios finish.
        Each worker process rebuilds the twin once, with a
        process-local warm-plant cache, so repeated coupled scenarios
        pay the deterministic 1800 s cooling warmup once per worker:
        wall-clock changes, results never do.
        """
        scenarios = self.expanded()
        if not scenarios:
            raise ScenarioError("suite has no scenarios to run")
        results: dict[int, ScenarioResult] = {}

        def finish(index: int, scenario: Scenario, outcome: ScenarioResult):
            results[index] = outcome
            if progress is not None:
                progress(scenario, len(results), len(scenarios))

        run_cells(
            self.twin,
            list(enumerate(scenarios)),
            workers=workers,
            on_result=finish,
        )
        return SuiteResult(results=[results[i] for i in sorted(results)])

    # -- declarative suite files ----------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-compatible description of the scenario list."""
        return [s.to_dict() for s in self.scenarios]

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        *,
        system: DigitalTwin | SystemSpec | str | Path | None = None,
    ) -> "ExperimentSuite":
        """Load a suite from a JSON file.

        The document is either a JSON array of scenario objects or an
        object ``{"system": ..., "scenarios": [...]}``; an explicit
        ``system`` argument overrides the file's.
        """
        p = Path(path)
        if not p.exists():
            raise ScenarioError(f"suite file not found: {p}")
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid suite JSON: {exc}") from exc
        if isinstance(doc, list):
            file_system, entries = None, doc
        elif isinstance(doc, dict):
            file_system = doc.get("system")
            entries = doc.get("scenarios")
            if not isinstance(entries, list):
                raise ScenarioError("suite object needs a 'scenarios' array")
        else:
            raise ScenarioError("suite JSON must be an array or an object")
        chosen = system if system is not None else (file_system or "frontier")
        return cls(chosen, [Scenario.from_dict(e) for e in entries])


__all__ = ["ExperimentSuite", "SuiteResult", "run_cells"]
