"""Telemetry replay through the digital twin + validation (Finding 8).

``replay_dataset`` drives the twin with a telemetry dataset's job
records at their recorded start times; :class:`ReplayValidation` wraps
the replay of a *measured* dataset (e.g. from the physical-twin
surrogate) and scores every predicted series against its measured
counterpart — the paper's Fig. 7 / Fig. 9 / Table III methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config.schema import SystemSpec
from repro.core.engine import RapsEngine, SimulationResult
from repro.core.validate import SeriesComparison, compare_series
from repro.exceptions import ValidationError
from repro.scheduler.job import Job
from repro.scheduler.workloads import jobs_from_dataset
from repro.telemetry.dataset import TelemetryDataset, TimeSeries


def replay_workload(
    dataset: TelemetryDataset,
) -> tuple[list[Job], TimeSeries | float]:
    """A dataset's jobs (to dispatch at their recorded starts) and its
    wet-bulb series (:func:`replay_wetbulb`)."""
    return jobs_from_dataset(dataset), replay_wetbulb(dataset)


def replay_wetbulb(dataset: TelemetryDataset) -> TimeSeries | float:
    """A dataset's wet-bulb series (15 degC when it records none)."""
    return (
        dataset["wetbulb_temperature"]
        if "wetbulb_temperature" in dataset
        else 15.0
    )


def replay_dataset(
    spec: SystemSpec,
    dataset: TelemetryDataset,
    duration_s: float,
    *,
    with_cooling: bool = True,
    progress=None,
) -> SimulationResult:
    """Replay a telemetry dataset's jobs through the twin.

    Jobs dispatch at their recorded start times (the physical twin's
    scheduling decisions); weather comes from the dataset when present.
    ``progress`` is forwarded to the engine's per-step callback hook.
    """
    jobs, wetbulb = replay_workload(dataset)
    engine = RapsEngine(
        spec, with_cooling=with_cooling, honor_recorded_starts=True
    )
    return engine.run(jobs, duration_s, wetbulb=wetbulb, progress=progress)


#: (comparison name, measured series name, predicted accessor)
_SERIES_MAP: tuple[tuple[str, str, str], ...] = (
    ("system_power", "measured_power", "power"),
    ("cdu_primary_flow", "cdu_htw_flow", "cdu_primary_flow_m3s"),
    ("cdu_primary_return_temp", "cdu_return_temp", "cdu_primary_return_temp_c"),
    ("cdu_secondary_supply_temp", "cdu_supply_temp", "cdu_secondary_supply_temp_c"),
    ("htw_supply_pressure", "htw_supply_pressure", "htw_supply_pressure_pa"),
    ("htw_supply_temp", "htw_supply_temp", "htw_supply_temp_c"),
    ("pue", "pue", "pue"),
)


@dataclass
class ReplayValidation:
    """Replay-and-compare harness over a measured telemetry dataset."""

    spec: SystemSpec
    measured: TelemetryDataset
    duration_s: float
    with_cooling: bool = True
    result: SimulationResult | None = None
    comparisons: dict[str, SeriesComparison] = field(default_factory=dict)

    def run(self) -> "ReplayValidation":
        """Execute the replay and score all mapped series."""
        self.result = replay_dataset(
            self.spec,
            self.measured,
            self.duration_s,
            with_cooling=self.with_cooling,
        )
        skip_s = 1800.0  # let the plant transient settle before scoring
        window = (skip_s, self.duration_s)
        for name, measured_name, accessor in _SERIES_MAP:
            if measured_name not in self.measured:
                continue
            if accessor == "power":
                predicted = self.result.power_series()
            else:
                if accessor not in self.result.cooling:
                    continue
                predicted = self.result.cooling_series(accessor)
            self.comparisons[name] = compare_series(
                name,
                predicted,
                self.measured[measured_name],
                window=window,
            )
        if not self.comparisons:
            raise ValidationError(
                "no overlapping series between prediction and telemetry"
            )
        return self

    def summary(self) -> str:
        """One line per compared series (Fig. 7-style report)."""
        if not self.comparisons:
            raise ValidationError("run() has not been called")
        return "\n".join(str(c) for c in self.comparisons.values())

    def power_percent_error(self) -> float:
        """Mean |error| of predicted vs measured power, % of mean power."""
        if self.result is None:
            raise ValidationError("run() has not been called")
        comp = self.comparisons.get("system_power")
        if comp is None:
            raise ValidationError("no measured power series")
        mean_measured = float(np.mean(self.measured["measured_power"].values))
        return comp.mae / mean_measured * 100.0


__all__ = [
    "replay_workload",
    "replay_wetbulb",
    "replay_dataset",
    "ReplayValidation",
]
