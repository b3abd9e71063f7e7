"""Batch experiment runner: N scenarios, one twin, optional parallelism.

An :class:`ExperimentSuite` resolves the system spec once, flattens any
sweep scenarios into their concrete children, and executes every
scenario through :func:`run_cells`, the cell executor suites and
campaigns share (``suite.run(workers=4)`` for worker processes).
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
from repro.scenarios.twin import DigitalTwin, as_twin


#: Per-process warm-plant cache shared by every suite scenario this
#: worker executes (created lazily on first coupled scenario).
_WORKER_WARM_CACHE = None


def _process_warm_cache():
    """The process-local :class:`~repro.service.warmcache.WarmStateCache`.

    Pool workers are reused across scenarios, so one cache per worker
    process lets every coupled scenario after the first skip the 1800 s
    cooling warmup.  Warmup is deterministic (see
    :func:`~repro.core.engine.warm_cooling`), so cached runs stay
    bit-identical to serial execution.
    """
    global _WORKER_WARM_CACHE
    if _WORKER_WARM_CACHE is None:
        from repro.service.warmcache import WarmStateCache

        _WORKER_WARM_CACHE = WarmStateCache()
    return _WORKER_WARM_CACHE


def execute_scenario(
    spec: SystemSpec,
    scenario: Scenario,
    surrogate_doc: dict | None = None,
    cooling_backend: str = "fused",
) -> ScenarioResult:
    """Run one scenario against a fresh twin built from ``spec``.

    Module-level so :class:`ProcessPoolExecutor` can pickle it — this
    is :func:`run_cells`' worker-process entry point.

    ``surrogate_doc`` is the serialized fast-path bundle of the
    driving twin (:meth:`DigitalTwin.surrogate_doc
    <repro.scenarios.twin.DigitalTwin.surrogate_doc>`): rebuilding it
    here keeps surrogate-fidelity cells bit-identical between serial
    and worker execution — without it a worker would train its own
    default bundle.  ``cooling_backend`` forwards the driving twin's
    plant backend, so an explicit oracle (``"reference"``) selection
    survives into workers.
    """
    twin = DigitalTwin(
        spec,
        warm_cache=_process_warm_cache(),
        cooling_backend=cooling_backend,
    )
    if surrogate_doc is not None:
        from repro.fastpath.bundle import SurrogateBundle

        twin.use_surrogates(SurrogateBundle.from_doc(surrogate_doc))
    return scenario.run(twin)


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

    ``execution="batched"`` runs the cells as the lanes of one
    :class:`~repro.batch.engine.BatchedEngine` (``workers`` ignored),
    each outcome handed over as the cell's last lane ends;
    else ``workers > 1`` spreads them over worker processes, each cell
    building its own workload, and the serial path shares one
    :class:`~repro.scenarios.base.WorkloadMemo` across the call.  Every
    path is bit-identical to ``scenario.run(twin)``.
    """
    check_execution(execution)
    if not pending:
        return
    if execution == "batched":
        from repro.batch import BatchedEngine

        BatchedEngine([s for _, s in pending], twin).run(
            on_result=lambda i, outcome: on_result(*pending[i], outcome)
        )
    elif workers <= 1:
        memo = WorkloadMemo()
        for index, scenario in pending:
            on_result(index, scenario, scenario.run(twin, workloads=memo))
    else:
        surrogate_doc = twin.surrogate_doc()
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending))
        ) as pool:
            futures = {
                pool.submit(
                    execute_scenario,
                    twin.spec,
                    scenario,
                    surrogate_doc,
                    twin.cooling_backend,
                ): (index, scenario)
                for index, scenario in pending
            }
            for future in as_completed(futures):
                on_result(*futures[future], future.result())


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

        Cells run through :func:`run_cells`.  Results come back in
        submission order, bit-identical to a ``workers=1`` run.
        ``progress(scenario, done, total)`` fires as scenarios finish.
        Each pool worker keeps a process-local warm-plant cache, so
        repeated coupled scenarios pay the deterministic 1800 s cooling
        warmup once per worker: wall-clock changes, results never do.
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


__all__ = ["ExperimentSuite", "SuiteResult", "execute_scenario", "run_cells"]
