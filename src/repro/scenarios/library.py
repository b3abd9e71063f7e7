"""The built-in scenario types.

One class per experiment family from the paper, unified behind the
``scenario.run(twin)`` protocol of :mod:`repro.scenarios.base`:

- :class:`SyntheticScenario` — Poisson synthetic workload (III-B3),
- :class:`ReplayScenario` — telemetry replay at recorded starts (Finding 8),
- :class:`VerificationScenario` — one Table III operating point,
- :class:`WhatIfScenario` — the IV-3 counterfactual chain studies,
- :class:`SweepScenario` — a one-parameter sweep expanding any base
  scenario over a value list,
- :class:`GridSweepScenario` — a cartesian grid over several base
  fields at once (wet-bulb × arrival seed × setpoints, ...),
- :class:`LatinHypercubeSweepScenario` — a seeded latin-hypercube
  sample of a multi-dimensional parameter box.

The three sweep kinds share :class:`BaseSweepScenario`: each expands to
concrete child scenarios via ``expand()``, which
:class:`~repro.scenarios.suite.ExperimentSuite` flattens before
dispatch (so grids run in parallel) and the campaign runner
(:mod:`repro.scenarios.campaign`) persists cell by cell.
"""

from __future__ import annotations

import dataclasses
import itertools
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.core.engine import SimulationResult
from repro.core.replay import replay_wetbulb
from repro.core.whatif import MODIFICATIONS, _make_chain, compare_results
from repro.core.stats import compute_statistics
from repro.exceptions import ScenarioError
from repro.scenarios.base import (
    RunPlan,
    Scenario,
    WorkloadMemo,
    memo_jobs,
    memo_payload,
    register_scenario,
)
from repro.scenarios.result import ScenarioResult
from repro.scenarios.twin import DigitalTwin, as_twin
from repro.seeding import spawn_rng
from repro.scheduler.workloads import (
    benchmark_sequence,
    hpl_verification_workload,
    idle_workload,
    jobs_from_dataset,
    peak_workload,
    synthetic_workload,
)
from repro.telemetry.dataset import TelemetryDataset


@register_scenario
@dataclass(frozen=True)
class SyntheticScenario(Scenario):
    """Poisson-arrival synthetic workload at a fixed wet-bulb temperature."""

    kind: ClassVar[str] = "synthetic"

    wetbulb_c: float = 15.0

    def plan(
        self,
        twin: DigitalTwin,
        *,
        workloads: WorkloadMemo | None = None,
        **kwargs: Any,
    ) -> RunPlan:
        jobs = memo_jobs(
            workloads,
            ("synthetic", self.duration_s, self.seed),
            lambda: synthetic_workload(
                twin.spec, self.duration_s, seed=self.seed
            ),
        )
        return RunPlan(
            jobs=jobs,
            duration_s=self.duration_s,
            wetbulb=self.wetbulb_c,
            honor_recorded=False,
        )


@register_scenario
@dataclass(frozen=True)
class ReplayScenario(Scenario):
    """Telemetry replay with recorded start times.

    Declaratively references the dataset by path; a caller holding an
    in-memory dataset may pass it as ``run(twin, dataset=...)`` instead.
    """

    kind: ClassVar[str] = "replay"

    dataset_path: str = ""

    def resolve_dataset(
        self, twin: DigitalTwin, dataset: TelemetryDataset | None = None
    ) -> TelemetryDataset:
        if dataset is not None:
            return dataset
        if not self.dataset_path:
            raise ScenarioError(
                "ReplayScenario needs a dataset_path or an injected dataset"
            )
        return twin.dataset(self.dataset_path)

    def plan(
        self,
        twin: DigitalTwin,
        *,
        dataset: TelemetryDataset | None = None,
        workloads: WorkloadMemo | None = None,
        **kwargs: Any,
    ) -> RunPlan:
        return _replay_plan(
            self.resolve_dataset(twin, dataset),
            self.duration_s,
            workloads=workloads,
        )


def _replay_plan(
    data: TelemetryDataset,
    duration_s: float,
    chain: Any = None,
    workloads: WorkloadMemo | None = None,
) -> RunPlan:
    """A dataset's jobs at their recorded starts, under its weather
    (the job list built once per dataset through ``workloads``)."""
    jobs = memo_jobs(
        workloads,
        ("replay", id(data)),
        lambda: jobs_from_dataset(data),
        keep=data,
    )
    return RunPlan(
        jobs=jobs,
        duration_s=duration_s,
        wetbulb=replay_wetbulb(data),
        honor_recorded=True,
        chain=chain,
    )


#: Table III operating-point workload builders.
_VERIFICATION_BUILDERS = {
    "idle": idle_workload,
    "hpl": hpl_verification_workload,
    "peak": peak_workload,
}


@register_scenario
@dataclass(frozen=True)
class VerificationScenario(Scenario):
    """One Table III verification point: 'idle', 'hpl', or 'peak'."""

    kind: ClassVar[str] = "verification"

    point: str = "idle"
    duration_s: float = 1800.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.point not in _VERIFICATION_BUILDERS:
            raise ScenarioError(
                f"unknown verification point {self.point!r}; "
                f"expected one of {sorted(_VERIFICATION_BUILDERS)}"
            )

    def plan(self, twin: DigitalTwin, **kwargs: Any) -> RunPlan:
        jobs = _VERIFICATION_BUILDERS[self.point](twin.spec, self.duration_s)
        return RunPlan(
            jobs=jobs,
            duration_s=self.duration_s,
            wetbulb=15.0,
            honor_recorded=True,
        )


@register_scenario
@dataclass(frozen=True)
class BenchmarkSequenceScenario(Scenario):
    """The paper's Fig. 8 benchmark sequence: HPL then OpenMxP.

    HPL is submitted at t=1800 s (5400 s wall) and OpenMxP at
    t=9000 s (3600 s wall) on ``node_count`` nodes, with idle gaps
    between — the synthetic benchmark verification workload whose
    power surges and thermal lag the paper validates against measured
    Frontier runs.  The default 13500 s duration covers the whole
    sequence; shorter durations truncate it (useful for smoke tests).
    Jobs dispatch at their recorded start times, so the timeline is
    exact regardless of scheduler policy.
    """

    kind: ClassVar[str] = "benchmark-sequence"

    duration_s: float = 13500.0
    node_count: int = 9216
    wetbulb_c: float = 15.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (
            isinstance(self.node_count, numbers.Integral)
            and not isinstance(self.node_count, bool)
        ):
            raise ScenarioError(
                f"node_count must be an integer, got {self.node_count!r}"
            )
        object.__setattr__(self, "node_count", int(self.node_count))
        if self.node_count < 1:
            raise ScenarioError("node_count must be >= 1")

    def plan(self, twin: DigitalTwin, **kwargs: Any) -> RunPlan:
        jobs = benchmark_sequence(twin.spec, node_count=self.node_count)
        return RunPlan(
            jobs=jobs,
            duration_s=self.duration_s,
            wetbulb=self.wetbulb_c,
            honor_recorded=True,
        )


@register_scenario
@dataclass(frozen=True)
class WhatIfScenario(Scenario):
    """Counterfactual chain study (paper IV-3): baseline vs modified.

    ``modification`` selects the virtual hardware change
    (``"smart-rectifier"`` or ``"direct-dc"``).  The workload replays a
    telemetry dataset referenced by ``dataset_path``, or — when no path
    is given — a synthesized production day drawn from ``seed``.  Its
    two plans replay it under the baseline and the modified chain; the
    outcome holds both runs (``baseline``, ``result``) and their deltas.
    """

    kind: ClassVar[str] = "whatif"

    modification: str = "direct-dc"
    dataset_path: str = ""
    with_cooling: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.modification not in MODIFICATIONS:
            raise ScenarioError(
                f"unknown what-if modification {self.modification!r}; "
                f"expected one of {sorted(MODIFICATIONS)}"
            )

    def resolve_dataset(
        self,
        twin: DigitalTwin,
        dataset: TelemetryDataset | None = None,
        workloads: WorkloadMemo | None = None,
    ) -> TelemetryDataset:
        """The replayed day; a synthesised one is built once per seed
        through ``workloads``, so what-ifs on one seed share it."""
        if dataset is not None:
            return dataset
        if self.dataset_path:
            return twin.dataset(self.dataset_path)
        from repro.telemetry.synthesis import SyntheticTelemetryGenerator

        synth = SyntheticTelemetryGenerator(twin.spec, seed=self.seed)
        return memo_payload(
            workloads, ("whatif-day", self.seed), lambda: synth.day(0)
        )

    def plans(
        self,
        twin: DigitalTwin,
        *,
        dataset: TelemetryDataset | None = None,
        workloads: WorkloadMemo | None = None,
        **kwargs: Any,
    ) -> list[RunPlan]:
        """The baseline replay, then the modified one: own jobs each,
        or through ``workloads`` one job list both runs check out."""
        data = self.resolve_dataset(twin, dataset, workloads)
        return [
            _replay_plan(data, self.duration_s, workloads=workloads),
            _replay_plan(
                data,
                self.duration_s,
                chain=_make_chain(twin.spec, self.modification),
                workloads=workloads,
            ),
        ]

    def _finish(
        self, twin: DigitalTwin, results: list[SimulationResult]
    ) -> ScenarioResult:
        baseline, modified = results
        return ScenarioResult(
            scenario=self,
            result=modified,
            statistics=compute_statistics(modified, twin.spec.economics),
            baseline=baseline,
            comparison=compare_results(
                self.modification, twin.spec, baseline, modified
            ),
        )


def _format_value(value: Any) -> str:
    """Short stable rendering of a swept value for child names."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def _apply_assignment(obj: Any, path: str, value: Any) -> Any:
    """Functionally set a dotted field path on nested frozen dataclasses.

    ``_apply_assignment(scenario, "workload.mean_arrival_s", 90.0)``
    rebuilds the scenario with a replaced workload generator, leaving
    every other object shared.  Paths are validated up front by
    ``BaseSweepScenario._check_fields``.
    """
    head, _, rest = path.partition(".")
    if not rest:
        return dataclasses.replace(obj, **{head: value})
    inner = _apply_assignment(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: inner})


@dataclass(frozen=True)
class BaseSweepScenario(Scenario):
    """Common machinery of the sweep scenario family.

    A sweep is itself a :class:`Scenario` (declarative, seedable,
    JSON-round-trippable) whose ``expand()`` yields the concrete child
    scenarios — one per grid cell or sample.  Anything that subclasses
    this is flattened by :class:`~repro.scenarios.suite.ExperimentSuite`
    before dispatch and enumerable cell-by-cell by the campaign runner.

    Run standalone, the children execute serially and land in
    ``ScenarioResult.children``; sweeps do not stream (expand and
    stream the children instead).
    """

    base: Scenario | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.base is not None and not isinstance(self.base, Scenario):
            raise ScenarioError(
                f"{type(self).__name__} field 'base' must be a scenario "
                f"(an object with a 'kind'), got {type(self.base).__name__}"
            )

    def points(self) -> list[dict[str, Any]]:
        """Per-child field assignments, in expansion order (subclass hook)."""
        raise NotImplementedError

    def expand(self) -> list[Scenario]:
        """Concrete child scenarios, one per swept point.

        Child names are unique within the sweep: two points landing on
        the same label (e.g. an integer LHS axis sampling the same
        value twice) get a ``#<index>`` suffix, so name-keyed joins —
        campaign comparison tables, heat-map pivots, ``SuiteResult``
        lookup — never silently collapse cells.
        """
        if self.base is None:
            raise ScenarioError(f"{type(self).__name__} needs a base scenario")
        children = []
        seen: set[str] = set()
        for index, assignments in enumerate(self.points()):
            label = ",".join(
                f"{k}={_format_value(v)}" for k, v in assignments.items()
            )
            name = f"{self.base.name}/{label}"
            if name in seen:
                name = f"{name}#{index}"
            seen.add(name)
            plain = {
                k: v for k, v in assignments.items() if "." not in k
            }
            child = dataclasses.replace(self.base, **plain, name=name)
            for path, value in assignments.items():
                if "." in path:
                    child = _apply_assignment(child, path, value)
            children.append(child)
        return children

    def _check_fields(self, parameters: list[str]) -> None:
        """Validate every swept name against the base scenario.

        Dotted paths (``workload.mean_arrival_s``) descend into nested
        dataclass fields — e.g. the workload generators of a
        ``generated`` base scenario — validating each segment.
        """
        for parameter in parameters:
            target = self.base
            context = f"base scenario {self.base.kind!r}"
            for segment in parameter.split("."):
                if not dataclasses.is_dataclass(target) or target is None:
                    raise ScenarioError(
                        f"{context} is not a parametric object; cannot "
                        f"sweep {parameter!r}"
                    )
                field_names = {f.name for f in dataclasses.fields(target)}
                if segment not in field_names:
                    raise ScenarioError(
                        f"{context} has no field {segment!r}"
                    )
                target = getattr(target, segment)
                context = f"field {segment!r} of {context}"

    def iter_steps(self, twin: DigitalTwin | Any, **kwargs: Any):
        raise ScenarioError(
            f"{type(self).__name__} does not stream: expand() it and "
            "stream the children, or run(twin) for the collected results"
        )

    def run(self, twin: DigitalTwin | Any, **kwargs: Any) -> ScenarioResult:
        twin = as_twin(twin)
        children = [child.run(twin, **kwargs) for child in self.expand()]
        return ScenarioResult(scenario=self, children=children)


@register_scenario
@dataclass(frozen=True)
class SweepScenario(BaseSweepScenario):
    """One-parameter sweep: a base scenario replicated over a value list."""

    kind: ClassVar[str] = "sweep"

    parameter: str = ""
    values: tuple = ()

    def points(self) -> list[dict[str, Any]]:
        if not self.parameter:
            raise ScenarioError("SweepScenario needs a parameter name")
        if not self.values:
            raise ScenarioError("SweepScenario needs at least one value")
        self._check_fields([self.parameter])
        return [{self.parameter: value} for value in self.values]


@register_scenario
@dataclass(frozen=True)
class GridSweepScenario(BaseSweepScenario):
    """Cartesian grid sweep over several base-scenario fields at once.

    ``grid`` maps field names to value lists; expansion is the cartesian
    product in declared order, the last axis varying fastest::

        GridSweepScenario(
            base=SyntheticScenario(duration_s=1800.0),
            grid={"wetbulb_c": (12.0, 18.0, 24.0), "seed": (0, 1, 2, 3)},
        )  # 12 cells

    A mapping passed at construction is normalized to a tuple of
    ``(name, values)`` pairs so the scenario stays frozen, hashable, and
    JSON-round-trippable.
    """

    kind: ClassVar[str] = "grid-sweep"

    grid: tuple = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "grid", _normalize_grid(self.grid))

    @property
    def parameters(self) -> list[str]:
        """Swept field names, in declared (pivot) order."""
        return [name for name, _ in self.grid]

    def shape(self) -> tuple[int, ...]:
        """Cells per axis, in declared order."""
        return tuple(len(values) for _, values in self.grid)

    def points(self) -> list[dict[str, Any]]:
        if not self.grid:
            raise ScenarioError("GridSweepScenario needs a non-empty grid")
        self._check_fields(self.parameters)
        axes = [values for _, values in self.grid]
        return [
            dict(zip(self.parameters, combo))
            for combo in itertools.product(*axes)
        ]


@register_scenario
@dataclass(frozen=True)
class LatinHypercubeSweepScenario(BaseSweepScenario):
    """Seeded latin-hypercube sample of a multi-dimensional box.

    ``ranges`` maps field names to ``(low, high)`` bounds; ``samples``
    points are drawn with one stratified sample per axis bin and the
    bins permuted independently per axis — the standard LHS
    construction.  The draw is fully determined by the scenario's
    ``seed``, so the same scenario expands to the same children on any
    host (and a persisted campaign can be resumed cell-by-cell).

    An axis whose bounds are both integers yields integers (the sampled
    value is floored within the bin), so discrete fields like ``seed``
    can be swept alongside continuous ones.
    """

    kind: ClassVar[str] = "lhs-sweep"

    ranges: tuple = ()
    samples: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "ranges", _normalize_ranges(self.ranges))
        if not (
            isinstance(self.samples, numbers.Integral)
            and not isinstance(self.samples, bool)
        ):
            raise ScenarioError(
                f"samples must be an integer, got {self.samples!r}"
            )
        object.__setattr__(self, "samples", int(self.samples))
        if self.samples < 1:
            raise ScenarioError("samples must be >= 1")

    @property
    def parameters(self) -> list[str]:
        """Swept field names, in declared order."""
        return [name for name, _, _ in self.ranges]

    def points(self) -> list[dict[str, Any]]:
        if not self.ranges:
            raise ScenarioError(
                "LatinHypercubeSweepScenario needs at least one range"
            )
        self._check_fields(self.parameters)
        rng = spawn_rng(self.seed, "lhs-sweep")
        n = self.samples
        columns: list[list[Any]] = []
        for _, low, high in self.ranges:
            # One stratum per sample, shuffled: bin k covers
            # [low + k*w, low + (k+1)*w) with w = (high-low)/n.
            strata = rng.permutation(n)
            offsets = rng.random(n)
            values = low + (strata + offsets) / n * (high - low)
            if isinstance(low, int) and isinstance(high, int):
                columns.append([int(v) for v in np.floor(values)])
            else:
                columns.append([float(v) for v in values])
        return [
            dict(zip(self.parameters, point)) for point in zip(*columns)
        ]


def _normalize_grid(grid: Any) -> tuple:
    """Coerce a grid mapping / pair list to ``((name, values), ...)``."""
    if isinstance(grid, Mapping):
        items = list(grid.items())
    elif isinstance(grid, (list, tuple)):
        items = list(grid)
    else:
        raise ScenarioError(
            f"grid must be a mapping or (name, values) pairs, got "
            f"{type(grid).__name__}"
        )
    out = []
    for item in items:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ScenarioError(
                f"grid entries must be (name, values) pairs, got {item!r}"
            )
        name, values = item
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"grid field name must be a string: {name!r}")
        if isinstance(values, (list, tuple, np.ndarray)):
            values = tuple(
                v.item() if isinstance(v, np.generic) else v for v in values
            )
        else:
            values = (values,)
        if not values:
            raise ScenarioError(f"grid axis {name!r} has no values")
        out.append((name, values))
    return tuple(out)


def _normalize_ranges(ranges: Any) -> tuple:
    """Coerce a ranges mapping / triple list to ``((name, lo, hi), ...)``."""
    if isinstance(ranges, Mapping):
        items = [(name, bounds) for name, bounds in ranges.items()]
    elif isinstance(ranges, (list, tuple)):
        items = []
        for entry in ranges:
            if isinstance(entry, (list, tuple)) and len(entry) == 3:
                items.append((entry[0], (entry[1], entry[2])))
            elif isinstance(entry, (list, tuple)) and len(entry) == 2:
                items.append((entry[0], entry[1]))
            else:
                raise ScenarioError(
                    f"ranges entries must be (name, low, high), got {entry!r}"
                )
    else:
        raise ScenarioError(
            f"ranges must be a mapping or (name, low, high) triples, got "
            f"{type(ranges).__name__}"
        )
    out = []
    for name, bounds in items:
        if not isinstance(name, str) or not name:
            raise ScenarioError(
                f"ranges field name must be a string: {name!r}"
            )
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise ScenarioError(
                f"range for {name!r} must be (low, high), got {bounds!r}"
            )
        low, high = bounds
        for v in (low, high):
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise ScenarioError(
                    f"range bounds for {name!r} must be numbers, got {v!r}"
                )
        low = low.item() if isinstance(low, np.generic) else low
        high = high.item() if isinstance(high, np.generic) else high
        if not low < high:
            raise ScenarioError(
                f"range for {name!r} needs low < high, got ({low}, {high})"
            )
        out.append((name, low, high))
    return tuple(out)


__all__ = [
    "SyntheticScenario",
    "ReplayScenario",
    "VerificationScenario",
    "BenchmarkSequenceScenario",
    "WhatIfScenario",
    "BaseSweepScenario",
    "SweepScenario",
    "GridSweepScenario",
    "LatinHypercubeSweepScenario",
]
