"""The ``generated`` scenario kind: workload generators as scenarios.

A :class:`GeneratedScenario` composes up to four
:class:`~repro.workloads.base.WorkloadGenerator`\\ s — one per role —
into a runnable, JSON-round-trippable scenario:

- ``workload`` (role ``jobs``, required to run) supplies the job list;
- ``faults`` (role ``events``) supplies a fault-injection stream;
- ``weather`` (role ``wetbulb``) supplies the wet-bulb trace
  (``wetbulb_c`` is the constant fallback);
- ``grid`` (role ``grid``) supplies a carbon/price signal for
  emissions post-processing (it does not affect the physics).

Jobs, faults and weather are built once per executor call through its
:class:`~repro.scenarios.base.WorkloadMemo`, keyed by the generator's
spec-SHA and the duration; :meth:`GeneratedScenario.workload_provenance`
exposes the spec-SHA content addresses that campaign artifacts persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import ScenarioError
from repro.scenarios.base import (
    RunPlan,
    Scenario,
    WorkloadMemo,
    memo_jobs,
    memo_payload,
    register_scenario,
)
from repro.scenarios.twin import DigitalTwin
from repro.workloads.base import WorkloadGenerator


def _check_role(value, role: str, field_name: str) -> None:
    if value is None:
        return
    if not isinstance(value, WorkloadGenerator):
        raise ScenarioError(
            f"{field_name} must be a WorkloadGenerator, "
            f"got {type(value).__name__}"
        )
    if value.role != role:
        raise ScenarioError(
            f"{field_name} needs a {role!r}-role generator, "
            f"got {value.generator!r} (role {value.role!r})"
        )


@register_scenario
@dataclass(frozen=True)
class GeneratedScenario(Scenario):
    """Run a parametric generated workload (with optional faults/weather)."""

    kind = "generated"

    workload: WorkloadGenerator | None = None
    faults: WorkloadGenerator | None = None
    weather: WorkloadGenerator | None = None
    grid: WorkloadGenerator | None = None
    wetbulb_c: float = 15.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_role(self.workload, "jobs", "workload")
        _check_role(self.faults, "events", "faults")
        _check_role(self.weather, "wetbulb", "weather")
        _check_role(self.grid, "grid", "grid")
        object.__setattr__(self, "wetbulb_c", float(self.wetbulb_c))

    def plan(
        self,
        twin: DigitalTwin,
        *,
        workloads: WorkloadMemo | None = None,
        **kwargs: Any,
    ) -> RunPlan:
        if self.workload is None:
            raise ScenarioError(
                f"generated scenario {self.name!r} has no workload generator"
            )
        weather = self._generate(self.weather, twin, workloads)
        return RunPlan(
            jobs=self._generate(self.workload, twin, workloads),
            duration_s=self.duration_s,
            wetbulb=self.wetbulb_c if weather is None else weather,
            honor_recorded=False,
            events=tuple(self._generate(self.faults, twin, workloads) or ()),
        )

    def grid_signal(self, twin: DigitalTwin):
        """The generated :class:`~repro.power.emissions.GridSignal`.

        Returns None when no grid generator is attached.  Feed it to
        :meth:`EmissionsModel.co2_tons_timeseries
        <repro.power.emissions.EmissionsModel.co2_tons_timeseries>` /
        ``energy_cost_usd_timeseries`` over the run's power series.
        """
        return self._generate(self.grid, twin, None)

    def _generate(self, gen, twin: DigitalTwin, workloads):
        """``gen``'s payload (None without ``gen``): jobs as a memo
        template list, the immutable roles shared as they are."""
        if gen is None:
            return None
        key = ("generated", gen.spec_sha(), self.duration_s)
        memo = memo_jobs if gen.role == "jobs" else memo_payload
        return memo(
            workloads, key, lambda: gen.generate(twin.spec, self.duration_s)
        )

    def workload_provenance(self) -> dict[str, dict]:
        """Content addresses of every attached generator, by role field.

        This is what :class:`~repro.scenarios.artifacts.CampaignStore`
        persists in its manifest next to the scenario document, so an
        artifact records exactly which generated inputs produced it.
        """
        out: dict[str, dict] = {}
        for field_name in ("workload", "faults", "weather", "grid"):
            gen = getattr(self, field_name)
            if gen is not None:
                out[field_name] = gen.provenance()
        return out


__all__ = ["GeneratedScenario"]
