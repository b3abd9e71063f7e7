"""Resumable sweep campaigns: an ExperimentSuite with a persistent spine.

A :class:`Campaign` binds an expanded scenario cell list to a
:class:`~repro.scenarios.artifacts.CampaignStore` directory.  Running
it executes only the cells that have no persisted result yet — each
finished cell is appended to ``results.jsonl`` as it completes, so a
campaign killed at cell 7 of 12 resumes with 5 simulations, not 12 —
and returns the merged :class:`~repro.scenarios.suite.SuiteResult`
(stored cells + freshly run cells, in cell order).

Scenarios are declarative and seeded, so a resumed cell is bit-identical
to what the interrupted run would have produced; the artifact directory
is therefore a faithful record of the whole campaign no matter how many
sessions it took.  Cells run through the suite's cell executor
(:func:`~repro.scenarios.suite.run_cells`): a suite is a campaign
without a store, with the same determinism guarantee.

Quickstart::

    from repro.scenarios import Campaign, GridSweepScenario, SyntheticScenario

    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=1800.0, with_cooling=False),
        grid={"wetbulb_c": (12.0, 18.0, 24.0), "seed": (0, 1, 2, 3)},
    )
    campaign = Campaign.create("artifacts/wb-x-seed", [sweep], system="frontier")
    print(campaign.run(workers=4).comparison_table())

    # later (new process, nothing recomputed):
    print(Campaign.open("artifacts/wb-x-seed").load().comparison_table())
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable

from repro.config.schema import SystemSpec
from repro.exceptions import ScenarioError
from repro.obs.registry import get_registry
from repro.scenarios.artifacts import CampaignStore
from repro.scenarios.base import Scenario
from repro.scenarios.result import ScenarioResult
from repro.scenarios.suite import SuiteResult, check_execution, run_cells
from repro.scenarios.twin import DigitalTwin, as_twin


class Campaign:
    """One persisted sweep campaign (cells + artifact store).

    ``surrogates`` optionally supplies the fast-path model bundle (a
    :class:`~repro.fastpath.bundle.SurrogateBundle` or a saved-bundle
    path) that surrogate-fidelity cells run on — shared by the serial
    path and shipped to worker processes in the twin's
    :meth:`~repro.scenarios.twin.DigitalTwin.recipe`, so parallel
    campaigns never retrain their own defaults.  ``warm_cache``
    attaches a :class:`~repro.service.warmcache.WarmStateCache` to the
    campaign's twin, so in-process coupled cells share one warmed
    plant; worker processes always keep their own process-local cache
    (see :func:`~repro.scenarios.twin.rebuild_twin`).
    """

    def __init__(
        self,
        store: CampaignStore,
        *,
        surrogates=None,
        warm_cache=None,
    ) -> None:
        self.store = store
        self.cells: list[Scenario] = store.cells()
        self.twin = DigitalTwin(
            store.system_spec(),
            surrogates=surrogates,
            warm_cache=warm_cache,
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        scenarios: Iterable[Scenario],
        *,
        system: DigitalTwin | SystemSpec | str | Path = "frontier",
        name: str | None = None,
        surrogates=None,
        warm_cache=None,
    ) -> "Campaign":
        """Start a new campaign directory from declared scenarios.

        Sweeps expand here; the cell order is frozen in the manifest.
        The full system spec is embedded too, so the directory is
        self-contained — ``open()`` needs no external spec file.
        """
        twin = as_twin(system)
        store = CampaignStore.create(
            path, list(scenarios), twin.spec, name=name
        )
        return cls(store, surrogates=surrogates, warm_cache=warm_cache)

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        surrogates=None,
        warm_cache=None,
    ) -> "Campaign":
        """Attach to an existing campaign directory."""
        return cls(
            CampaignStore.open(path),
            surrogates=surrogates,
            warm_cache=warm_cache,
        )

    # -- state -----------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self.store.path

    def pending(self) -> list[tuple[int, Scenario]]:
        """(index, scenario) for every cell without a persisted result."""
        done = self.store.completed_indices()
        return [
            (i, cell) for i, cell in enumerate(self.cells) if i not in done
        ]

    def is_complete(self) -> bool:
        return self.store.is_complete()

    # -- execution -------------------------------------------------------------

    def run(
        self,
        workers: int = 1,
        *,
        progress: Callable[[Scenario, int, int], None] | None = None,
        stop_after: int | None = None,
        execution: str = "serial",
    ) -> SuiteResult:
        """Execute the missing cells, persisting each as it finishes.

        Already-completed cells are loaded from the store and never
        re-simulated; the pending ones run through
        :func:`~repro.scenarios.suite.run_cells` as lane groups of
        :class:`~repro.batch.engine.BatchedEngine` (``"serial"``: one
        group per cell, spread over worker processes when
        ``workers > 1``; ``execution="batched"``: one in-process group
        of every pending cell), each path bit-identical, so the
        persisted artifacts do not depend on it.
        ``progress(scenario, done, total)`` counts persisted cells,
        so a resumed campaign starts partway through.  ``stop_after``
        limits how many *new* cells run this call (used by tests to
        simulate interruption; the store stays consistent).

        Returns the merged suite result in cell order: stored results
        for old cells, live results for the ones just run.
        """
        check_execution(execution)
        total = len(self.cells)
        if total == 0:
            raise ScenarioError("campaign has no cells to run")
        stored = self.store.completed()
        merged: dict[int, Any] = dict(stored)
        # Derive the work list from the single JSONL parse above —
        # campaigns can hold hundreds of cells with per-step series, so
        # one read has to be enough.
        pending = [
            (i, cell) for i, cell in enumerate(self.cells) if i not in stored
        ]
        if stop_after is not None:
            pending = pending[: max(stop_after, 0)]
        reg = get_registry()
        if stored:
            reg.counter("repro_campaign_cells_skipped_total").inc(
                len(stored)
            )

        def finish(index: int, scenario: Scenario, outcome: ScenarioResult):
            self.store.record(index, outcome)
            merged[index] = outcome
            reg.counter("repro_campaign_cells_done_total").inc()
            if progress is not None:
                progress(scenario, len(merged), total)

        run_cells(
            self.twin,
            pending,
            workers=workers,
            execution=execution,
            on_result=finish,
        )
        return SuiteResult(results=[merged[i] for i in sorted(merged)])

    def load(self) -> SuiteResult:
        """Reload persisted results only — never simulates."""
        return self.store.load()


__all__ = ["Campaign"]
