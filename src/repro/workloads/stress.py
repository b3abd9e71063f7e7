"""Stress-suite campaigns: generate -> run -> validate over workload grids.

A :class:`StressSuite` wraps a persisted campaign over
:class:`~repro.scenarios.generated.GeneratedScenario` cells (any
scenario kind works, but generated grids are the point) and adds the
third leg of the stress loop: after the cells run, every persisted
result is swept through a battery of physical invariant checks —
finite headline metrics, no NaNs in the step series, non-negative
power, bounded utilization, PUE >= 1 where cooling is coupled, and
energy balance between the power series and the recorded energy
metric.  The verdicts land in ``validation.json`` next to the campaign
artifacts, so a stress campaign directory is self-describing: inputs
(content-addressed workload provenance in the manifest), outputs
(results JSONL), and the pass/fail audit.

Two execution shapes, chosen at :meth:`StressSuite.create`:

- ``screen_top_k=None`` — a plain resumable
  :class:`~repro.scenarios.campaign.Campaign`: every cell runs at its
  declared fidelity;
- ``screen_top_k=K`` — a
  :class:`~repro.fastpath.multifidelity.MultiFidelityCampaign`: every
  cell is screened at surrogate fidelity first (milliseconds per cell),
  only the top-K by ``metric`` are refined at full fidelity, and both
  phases are validated.

Either way the suite is resumable: re-running a killed suite simulates
only the missing cells, generating each of their workloads once per
call (by spec-SHA; nothing is kept between calls).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import ScenarioError
from repro.telemetry.schema import TRACE_QUANTA_S

VALIDATION_NAME = "validation.json"

#: Relative tolerance of the energy-balance re-integration check.
ENERGY_BALANCE_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class CellValidation:
    """Invariant-check verdict for one persisted campaign cell."""

    phase: str
    index: int
    name: str
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@dataclasses.dataclass(frozen=True)
class StressReport:
    """Outcome of one :meth:`StressSuite.run` / ``validate`` call."""

    path: str
    complete: bool
    cells: tuple = ()

    @property
    def validated(self) -> int:
        return len(self.cells)

    @property
    def failed(self) -> tuple:
        return tuple(c for c in self.cells if not c.passed)

    @property
    def passed(self) -> bool:
        """All validated cells clean (vacuously true only when complete)."""
        return not self.failed and (self.complete or bool(self.cells))

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "complete": self.complete,
            "validated": self.validated,
            "failed": len(self.failed),
            "cells": [c.to_dict() for c in self.cells],
        }

    def report(self) -> str:
        status = "complete" if self.complete else "partial"
        lines = [
            f"stress suite {self.path}: {status}, "
            f"{self.validated} cells validated, {len(self.failed)} failed"
        ]
        for cell in self.failed:
            for failure in cell.failures:
                lines.append(f"  FAIL [{cell.phase}:{cell.index}] "
                             f"{cell.name}: {failure}")
        return "\n".join(lines)


class StressSuite:
    """One persisted generate -> run -> validate stress campaign.

    Construct with :meth:`create` (new directory) or :meth:`open`
    (attach / resume).  ``surrogates`` is the runtime model-bundle
    handle for surrogate-fidelity cells — not persisted, pass it again
    on open, exactly as with the underlying campaign types.
    """

    def __init__(self, path: str | Path, *, surrogates=None) -> None:
        self.path = Path(path)
        self.surrogates = surrogates

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        scenarios,
        *,
        system="frontier",
        screen_top_k: int | None = None,
        metric: str = "mean_power_mw",
        objective: str = "max",
        name: str | None = None,
        surrogates=None,
    ) -> "StressSuite":
        """Start a new stress-suite directory from declared scenarios.

        ``screen_top_k=None`` freezes a plain campaign; an integer K
        adds the surrogate screening phase (only the top-K cells by
        ``metric``/``objective`` are refined at full fidelity).
        """
        # Deferred imports: the campaign stack imports repro.scenarios,
        # which must be importable without repro.workloads and vice versa.
        if screen_top_k is not None:
            from repro.fastpath.multifidelity import MultiFidelityCampaign

            MultiFidelityCampaign.create(
                path,
                scenarios,
                system=system,
                top_k=screen_top_k,
                metric=metric,
                objective=objective,
                name=name,
                surrogates=surrogates,
            )
        else:
            from repro.scenarios.campaign import Campaign

            Campaign.create(
                path, scenarios, system=system, name=name,
                surrogates=surrogates,
            )
        return cls(path, surrogates=surrogates)

    @classmethod
    def open(cls, path: str | Path, *, surrogates=None) -> "StressSuite":
        """Attach to an existing stress-suite directory."""
        path = Path(path)
        from repro.fastpath.multifidelity import MultiFidelityCampaign
        from repro.scenarios.artifacts import CampaignStore

        if not (
            MultiFidelityCampaign.exists(path) or CampaignStore.exists(path)
        ):
            raise ScenarioError(f"no stress-suite campaign at {path}")
        return cls(path, surrogates=surrogates)

    @property
    def screened(self) -> bool:
        """Whether this suite has a surrogate screening phase."""
        from repro.fastpath.multifidelity import MultiFidelityCampaign

        return MultiFidelityCampaign.exists(self.path)

    def campaign(self):
        """The underlying campaign object (plain or multi-fidelity)."""
        if self.screened:
            from repro.fastpath.multifidelity import MultiFidelityCampaign

            return MultiFidelityCampaign.open(
                self.path, surrogates=self.surrogates
            )
        from repro.scenarios.campaign import Campaign

        return Campaign.open(self.path, surrogates=self.surrogates)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        workers: int = 1,
        *,
        progress: Callable | None = None,
        stop_after: int | None = None,
        execution: str = "serial",
    ) -> StressReport:
        """Advance the campaign, then validate everything persisted.

        Fully resumable: completed cells are never re-simulated, and
        ``stop_after`` bounds how many new cells run this call (the
        interruption-testing knob of the underlying campaigns).  The
        validation sweep always covers *all* persisted cells — also the
        ones finished in earlier sessions — and rewrites
        ``validation.json``.

        ``execution="batched"`` vectorizes the pending cells through
        the :mod:`repro.batch` engine (plain campaigns only — a
        screened suite's surrogate phase has its own scheduling and
        ignores the knob).
        """
        campaign = self.campaign()
        kwargs: dict = dict(
            workers=workers, progress=progress, stop_after=stop_after
        )
        if not self.screened:
            kwargs["execution"] = execution
        campaign.run(**kwargs)
        return self.validate()

    def validate(self) -> StressReport:
        """Invariant-check every persisted cell; write ``validation.json``."""
        from repro.scenarios.artifacts import CampaignStore

        cells: list[CellValidation] = []
        complete = True
        for phase, store_path in self._stores():
            if not CampaignStore.exists(store_path):
                complete = False
                continue
            store = CampaignStore.open(store_path)
            done = store.completed()
            scenarios = store.cells()
            if set(done) < set(range(len(scenarios))):
                complete = False
            for index in sorted(done):
                stored = done[index]
                scenario = stored.scenario
                failures = _check_cell(stored, scenario)
                cells.append(
                    CellValidation(
                        phase=phase,
                        index=index,
                        name=stored.name,
                        failures=tuple(failures),
                    )
                )
        report = StressReport(
            path=str(self.path), complete=complete, cells=tuple(cells)
        )
        invalid = sum(1 for cell in cells if not cell.passed)
        if invalid:
            from repro.obs.registry import get_registry

            get_registry().counter(
                "repro_stress_cells_invalid_total"
            ).inc(invalid)
        (self.path / VALIDATION_NAME).write_text(
            json.dumps(report.to_dict(), indent=2), encoding="utf-8"
        )
        return report

    def load_validation(self) -> dict[str, Any] | None:
        """The last persisted ``validation.json`` document, if any."""
        path = self.path / VALIDATION_NAME
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    # -- helpers ---------------------------------------------------------------

    def _stores(self) -> list[tuple[str, Path]]:
        if self.screened:
            from repro.fastpath.multifidelity import REFINE_DIR, SCREEN_DIR

            return [
                ("screen", self.path / SCREEN_DIR),
                ("refine", self.path / REFINE_DIR),
            ]
        return [("cells", self.path)]


def _check_cell(stored, scenario) -> list[str]:
    """The per-cell invariant battery (pure function of stored data)."""
    failures: list[str] = []
    metrics = stored.metrics()
    for key in ("mean_power_mw", "energy_mwh", "loss_percent"):
        value = metrics.get(key, math.nan)
        if not (isinstance(value, float) and math.isfinite(value)):
            failures.append(f"metric {key} is not finite: {value!r}")
    coupled = bool(getattr(scenario, "with_cooling", False))
    pue = metrics.get("mean_pue", math.nan)
    if isinstance(pue, float) and math.isfinite(pue) and pue < 1.0 - 1e-6:
        failures.append(f"mean_pue {pue:.6f} below 1")

    series = stored.series
    for series_name, values in series.items():
        arr = np.asarray(values, dtype=np.float64)
        if np.isnan(arr).any():
            failures.append(f"series {series_name} contains NaN")
    power = np.asarray(series.get("system_power_w", ()), dtype=np.float64)
    if power.size:
        if np.any(power < 0.0):
            failures.append("system_power_w has negative samples")
        energy = float(np.sum(power) * TRACE_QUANTA_S / 3.6e9)
        recorded = metrics.get("energy_mwh", math.nan)
        if isinstance(recorded, float) and math.isfinite(recorded):
            tol = ENERGY_BALANCE_RTOL * max(abs(recorded), 1.0)
            if abs(energy - recorded) > tol:
                failures.append(
                    f"energy balance violated: series integrate to "
                    f"{energy:.9f} MWh, metrics record {recorded:.9f} MWh"
                )
    util = np.asarray(series.get("utilization", ()), dtype=np.float64)
    if util.size and (np.any(util < -1e-9) or np.any(util > 1.0 + 1e-9)):
        failures.append("utilization leaves [0, 1]")
    pue_series = np.asarray(series.get("cooling.pue", ()), dtype=np.float64)
    if pue_series.size and np.any(pue_series < 1.0 - 1e-6):
        failures.append("cooling.pue series dips below 1")
    if coupled and not pue_series.size and not math.isfinite(pue):
        # Coupled cells must produce a PUE somewhere (series or metric).
        failures.append("coupled cell recorded no PUE")
    return failures


__all__ = [
    "ENERGY_BALANCE_RTOL",
    "VALIDATION_NAME",
    "CellValidation",
    "StressReport",
    "StressSuite",
]
