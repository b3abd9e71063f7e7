"""Declarative scenario protocol: parametric, seedable, serializable.

A :class:`Scenario` is a frozen dataclass that fully *describes* one
experiment against a digital twin — it holds no live objects, only
parameters — so it can round-trip through JSON
(``Scenario.from_dict(s.to_dict()) == s``), be shipped to a worker
process, and be re-run reproducibly from its seed.  Execution is a
single protocol method, ``scenario.run(twin)``, which plans the
scenario's engine runs (``plans``: one for most kinds, a baseline and a
modified replay for a what-if), drives the streaming
:class:`~repro.core.engine.RapsEngine` through each in order, and
returns a :class:`~repro.scenarios.result.ScenarioResult`.

Concrete scenario types live in :mod:`repro.scenarios.library` and
register themselves here by their ``kind`` tag: ``synthetic``,
``replay``, ``verification``, ``whatif``, ``generated`` (workload
generators, :mod:`repro.scenarios.generated`), plus the sweep family
(``sweep``, ``grid-sweep``, ``lhs-sweep``) that expands into child
scenarios for suite and campaign execution.  The declarative contract
is what makes the rest of the stack work: suites ship scenarios to
worker processes, and campaign artifact directories freeze scenario
documents on disk and rebuild them bit-identically on resume.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterator

import numpy as np

from repro.core.engine import RapsEngine, SimulationResult, StepState
from repro.core.stats import compute_statistics
from repro.exceptions import ScenarioError
from repro.scenarios.result import ScenarioResult
from repro.scenarios.twin import DigitalTwin, as_twin
from repro.scheduler.job import Job
from repro.telemetry.dataset import TimeSeries

#: Registry of scenario classes by their ``kind`` tag (for from_dict).
SCENARIO_TYPES: dict[str, type["Scenario"]] = {}


def register_scenario(cls: type["Scenario"]) -> type["Scenario"]:
    """Class decorator: register ``cls`` under its ``kind`` tag."""
    if not cls.kind:
        raise ScenarioError(f"{cls.__name__} must define a non-empty kind")
    if cls.kind in SCENARIO_TYPES:
        raise ScenarioError(f"duplicate scenario kind {cls.kind!r}")
    SCENARIO_TYPES[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class RunPlan:
    """A planned engine run: the imperative output of a declarative scenario.

    ``events`` is an optional time-sorted stream of
    :class:`~repro.core.events.FaultEvent`\\ s (node outages, CDU
    blockages) the engine applies while the run advances.  ``chain`` is
    the run's conversion chain (``None``: the spec's baseline chain); a
    what-if's modified plan carries its own.
    """

    jobs: list[Job]
    duration_s: float
    wetbulb: float | TimeSeries = 15.0
    honor_recorded: bool = False
    chain: Any = None
    events: tuple = ()


class WorkloadMemo:
    """The workloads one run of many cells builds, each built once.

    The cell executor (:func:`~repro.scenarios.suite.run_cells`) and
    :class:`~repro.batch.engine.BatchedEngine` pass one memo to every
    scenario's :meth:`Scenario.plans` as ``workloads=``, and a plan hook
    builds its job list through :meth:`jobs`: equal keys get the one
    list built first.  Those jobs are templates.  They never run, their
    trace arrays are read-only views, and :meth:`checkout` gives each
    engine run its own unstarted jobs over the same arrays.  Immutable
    inputs (faults, weather, a synthesised day) go through
    :meth:`payload`, shared as is.  A memo lives for one executor call
    or one ``BatchedEngine.run`` over one twin: not a process cache.
    """

    def __init__(self) -> None:
        self._built: dict[Any, Any] = {}
        self._lists: set[int] = set()

    def jobs(
        self, key: Any, build: Callable[[], list[Job]], *, keep: Any = None
    ) -> list[Job]:
        """The job list built for ``key``, calling ``build()`` on a miss.

        ``keep`` is an object that ``key`` names by ``id`` (a dataset):
        the memo holds it, so the id stays unique while the memo lives.
        """

        def template():
            jobs = build()
            for job in jobs:
                job.cpu_util = _read_only(job.cpu_util)
                job.gpu_util = _read_only(job.gpu_util)
            self._lists.add(id(jobs))
            return jobs, keep

        return self.payload(key, template)[0]

    def payload(self, key: Any, build: Callable[[], Any]) -> Any:
        """The immutable payload built for ``key``, calling ``build()``
        on a miss; every caller gets that one object, never a copy."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def built(self, jobs: list[Job]) -> bool:
        """Whether ``jobs`` is a template list this memo built."""
        return id(jobs) in self._lists

    def checkout(self, jobs: list[Job]) -> list[Job]:
        """Jobs one engine run may start: unstarted copies of a template
        list, any other list as it is."""
        if not self.built(jobs):
            return jobs
        return [job.unstarted() for job in jobs]


def memo_jobs(
    workloads: WorkloadMemo | None,
    key: Any,
    build: Callable[[], list[Job]],
    *,
    keep: Any = None,
) -> list[Job]:
    """A plan hook's job list: through ``workloads`` when the caller
    passed a memo (built once per ``key``), else built directly."""
    if workloads is None:
        return build()
    return workloads.jobs(key, build, keep=keep)


def memo_payload(
    workloads: WorkloadMemo | None, key: Any, build: Callable[[], Any]
) -> Any:
    """A plan hook's immutable payload, as :func:`memo_jobs` does it."""
    if workloads is None:
        return build()
    return workloads.payload(key, build)


def _read_only(trace: np.ndarray) -> np.ndarray:
    # A view, so an array shared with its source (a dataset's job
    # record) stays writable there.
    view = trace.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class Scenario:
    """Base class for declarative scenarios.

    Parameters common to every scenario: a display ``name`` (defaults
    to the kind tag), the simulated ``duration_s``, the RNG ``seed``,
    whether the run couples the cooling FMU, an optional scheduler
    policy override, and the execution ``fidelity`` — ``"full"`` (L4
    first-principles engine), ``"surrogate"`` (the L3 fast path,
    :class:`~repro.fastpath.engine.SurrogateEngine`), or ``""`` to
    inherit the twin's default.  Fidelity is a declarative field, so a
    persisted campaign records which backend produced every cell.
    """

    kind: ClassVar[str] = ""

    name: str = ""
    duration_s: float = 3600.0
    seed: int = 0
    with_cooling: bool = True
    policy: str | None = None
    fidelity: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", self.kind or "scenario")
        # Coerce numpy scalars to plain Python so sweep grids built with
        # np.arange/np.linspace stay declarative and JSON-serializable.
        if isinstance(self.duration_s, numbers.Real) and not isinstance(
            self.duration_s, (bool, np.bool_)
        ):
            object.__setattr__(self, "duration_s", float(self.duration_s))
        else:
            raise ScenarioError(
                f"duration_s must be a number, got {self.duration_s!r}"
            )
        if self.duration_s <= 0:
            raise ScenarioError("duration_s must be positive")
        if isinstance(self.seed, numbers.Integral) and not isinstance(
            self.seed, (bool, np.bool_)
        ):
            object.__setattr__(self, "seed", int(self.seed))
        else:
            raise ScenarioError(
                f"seed must be an integer, got {self.seed!r}"
            )
        if isinstance(self.with_cooling, (bool, np.bool_)):
            object.__setattr__(self, "with_cooling", bool(self.with_cooling))
        else:
            raise ScenarioError(
                f"with_cooling must be a boolean, got {self.with_cooling!r}"
            )
        if self.fidelity not in ("", "full", "surrogate"):
            raise ScenarioError(
                f"unknown fidelity {self.fidelity!r}; expected 'full', "
                "'surrogate', or '' (inherit the twin's)"
            )

    # -- execution protocol ----------------------------------------------------

    def plan(self, twin: DigitalTwin, **kwargs: Any) -> RunPlan:
        """Materialize the workload for this scenario (subclass hook)."""
        raise NotImplementedError

    def plans(self, twin: DigitalTwin, **kwargs: Any) -> list[RunPlan]:
        """This scenario's engine runs, in order (one by default; a
        what-if has two); :meth:`_finish` gets one result per plan."""
        return [self.plan(twin, **kwargs)]

    def run(
        self,
        twin: DigitalTwin | Any,
        *,
        progress: Callable[[StepState], None] | None = None,
        stop_when: Callable[[StepState], bool] | None = None,
        **plan_kwargs: Any,
    ) -> ScenarioResult:
        """Execute against ``twin`` (a DigitalTwin, spec, name, or path).

        The planned runs execute in plan order; ``progress`` /
        ``stop_when`` hook into each run's streaming step loop.  Calls
        sharing a ``workloads=`` :class:`WorkloadMemo` build once.
        """
        twin = as_twin(twin)
        results = [
            engine.run(
                plan.jobs,
                plan.duration_s,
                wetbulb=plan.wetbulb,
                events=plan.events,
                progress=progress,
                stop_when=stop_when,
            )
            for plan, engine in self._engines(twin, plan_kwargs)
        ]
        return self._finish(twin, results)

    def iter_steps(
        self, twin: DigitalTwin | Any, **plan_kwargs: Any
    ) -> Iterator[StepState]:
        """Stream the scenario's runs one quantum at a time (live feeds):
        plan 0's steps, then plan 1's, as :meth:`run`'s ``progress``."""
        return _chain_runs(self._engines(as_twin(twin), plan_kwargs))

    def _engines(self, twin: DigitalTwin, plan_kwargs: dict[str, Any]):
        # Built before any run starts, so a rejected plan fails up front.
        memo = plan_kwargs.get("workloads")
        engines = []
        for plan in self.plans(twin, **plan_kwargs):
            if memo is not None:  # each engine starts its own copies
                plan = dataclasses.replace(plan, jobs=memo.checkout(plan.jobs))
            engines.append((plan, self.build_engine(twin, plan)))
        return engines

    def effective_fidelity(self, twin: DigitalTwin) -> str:
        """This scenario's backend: its own field, else the twin's."""
        return self.fidelity or getattr(twin, "fidelity", "full")

    def build_engine(self, twin: DigitalTwin, plan: RunPlan):
        """Construct the engine for one planned run.

        Dispatches on the effective fidelity: the full L4
        :class:`~repro.core.engine.RapsEngine` (with the plan's
        conversion chain), or the surrogate-backed
        :class:`~repro.fastpath.engine.SurrogateEngine` (both implement
        the same ``iter_steps``/``run`` protocol).
        """
        if self.effective_fidelity(twin) == "surrogate":
            # Deferred import: repro.fastpath depends on this module.
            from repro.fastpath.engine import SurrogateEngine

            if plan.chain is not None:
                raise ScenarioError(
                    "surrogate fidelity cannot apply conversion-chain "
                    "overrides (the bundle is trained on the baseline "
                    "chain); run what-ifs at fidelity='full'"
                )
            return SurrogateEngine(
                twin.spec,
                twin.surrogates(cooling=self.with_cooling),
                with_cooling=self.with_cooling,
                honor_recorded_starts=plan.honor_recorded,
                policy=self.policy,
            )
        return RapsEngine(
            twin.spec,
            chain=plan.chain,
            with_cooling=self.with_cooling,
            honor_recorded_starts=plan.honor_recorded,
            policy=self.policy,
            warm_cache=getattr(twin, "warm_cache", None),
            cooling_backend=getattr(twin, "cooling_backend", "fused"),
        )

    def _finish(
        self, twin: DigitalTwin, results: list[SimulationResult]
    ) -> ScenarioResult:
        """Reduce one engine result per plan to the scenario's outcome."""
        (result,) = results
        return ScenarioResult(
            scenario=self,
            result=result,
            statistics=compute_statistics(result, twin.spec.economics),
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible description, round-trippable via from_dict."""
        doc: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):
            doc[f.name] = _to_jsonable(getattr(self, f.name))
        return doc

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from its :meth:`to_dict` description."""
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"scenario document must be an object, got {type(doc).__name__}"
            )
        kind = doc.get("kind")
        cls = SCENARIO_TYPES.get(kind)
        if cls is None:
            raise ScenarioError(
                f"unknown scenario kind {kind!r}; "
                f"registered: {sorted(SCENARIO_TYPES)}"
            )
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs: dict[str, Any] = {}
        for key, value in doc.items():
            if key == "kind":
                continue
            if key not in fields:
                raise ScenarioError(
                    f"unknown scenario field {key!r} for kind {kind!r}"
                )
            kwargs[key] = _from_jsonable(value)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ScenarioError(f"bad scenario document: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        return Scenario.from_dict(doc)


def _chain_runs(runs) -> Iterator[StepState]:
    # ``yield from`` forwards an early close to the running engine.
    for plan, engine in runs:
        yield from engine.iter_steps(
            plan.jobs,
            plan.duration_s,
            wetbulb=plan.wetbulb,
            events=plan.events,
        )


def _to_jsonable(value: Any) -> Any:
    if isinstance(value, Scenario):
        return value.to_dict()
    # Deferred import: repro.workloads must not be a module-level
    # dependency of the scenario core (generated.py imports us).
    from repro.workloads.base import WorkloadGenerator

    if isinstance(value, WorkloadGenerator):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    # Numeric checks run before the plain passthrough so numpy scalars
    # (sweep grids from np.arange/np.linspace) normalize to Python types.
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, str) or value is None:
        return value
    raise ScenarioError(
        f"scenario field value of type {type(value).__name__} is not "
        "JSON-serializable; scenarios must stay declarative"
    )


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if "kind" in value:
            return Scenario.from_dict(value)
        if "generator" in value:
            from repro.workloads.base import WorkloadGenerator

            return WorkloadGenerator.from_dict(value)
        # Any other object is a plain mapping (a sweep's grid or
        # ranges); the field's own validation decides what it accepts.
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        # Sequence fields are declared as tuples so scenarios stay
        # hashable/frozen; JSON arrays come back as tuples.
        return tuple(_from_jsonable(v) for v in value)
    return value


__all__ = [
    "RunPlan",
    "WorkloadMemo",
    "memo_jobs",
    "memo_payload",
    "Scenario",
    "SCENARIO_TYPES",
    "register_scenario",
]
