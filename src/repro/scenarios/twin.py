"""The digital twin handle scenarios execute against.

A :class:`DigitalTwin` resolves a system reference (builtin name, JSON
path, or an already-built :class:`~repro.config.schema.SystemSpec`) once
and caches shared expensive inputs — loaded telemetry datasets and
trained surrogate bundles — so an
:class:`~repro.scenarios.suite.ExperimentSuite` pays for spec/dataset
loading and surrogate training a single time no matter how many
scenarios run against it.

The twin also carries the default execution *fidelity*: ``"full"``
(the L4 first-principles engine) or ``"surrogate"`` (the L3 fast path,
:mod:`repro.fastpath`).  Scenarios inherit it unless they pin their own
``fidelity`` field, so an unchanged scenario library can be re-run on
the fast path with nothing but ``DigitalTwin("frontier",
fidelity="surrogate")``.
"""

from __future__ import annotations

from pathlib import Path

from repro.config.loader import (
    dumps_system,
    load_builtin_system,
    load_system,
    loads_system,
)
from repro.config.schema import SystemSpec
from repro.cooling.plant import BACKENDS as COOLING_BACKENDS
from repro.exceptions import ScenarioError
from repro.telemetry.dataset import TelemetryDataset

#: Valid execution fidelities ("" on a scenario means: inherit the twin's).
FIDELITIES = ("full", "surrogate")


def resolve_spec(system: str | Path | SystemSpec) -> SystemSpec:
    """Resolve a system reference to a :class:`SystemSpec`.

    Accepts a spec instance (returned as-is), a path to a JSON spec, or
    a builtin system name (``"frontier"``, ``"setonix"``, ...).
    """
    if isinstance(system, SystemSpec):
        return system
    text = str(system)
    if text.endswith(".json") or Path(text).exists():
        return load_system(system)
    return load_builtin_system(text)


class DigitalTwin:
    """One resolved system that many scenarios can run against.

    Parameters
    ----------
    system:
        Spec instance, JSON path, or builtin name.
    fidelity:
        Default execution backend for scenarios that don't pin one:
        ``"full"`` (default) or ``"surrogate"``.
    surrogates:
        Optional fast-path models: a trained
        :class:`~repro.fastpath.bundle.SurrogateBundle` or a path to a
        saved bundle JSON (loaded lazily, spec-checked).  Without it,
        surrogate-fidelity runs train a default bundle on first use
        (memoized per process).
    warm_cache:
        Optional warm-plant state cache (a
        :class:`~repro.service.warmcache.WarmStateCache`), shared by
        every full-fidelity coupled run against this twin: the first
        run pays the 1800 s cooling warmup and snapshots the warmed
        plant; later runs restore it, bit-identically.
    cooling_backend:
        Cooling-plant stepping backend for full-fidelity coupled runs:
        the fused flat-array kernel (``"fused"``, default) or the
        reference object graph (``"reference"``).  The two are
        bit-identical; the knob exists for oracle comparisons and
        perf forensics.
    """

    def __init__(
        self,
        system: str | Path | SystemSpec = "frontier",
        *,
        fidelity: str = "full",
        surrogates=None,
        warm_cache=None,
        cooling_backend: str = "fused",
    ) -> None:
        if fidelity not in FIDELITIES:
            raise ScenarioError(
                f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
            )
        if cooling_backend not in COOLING_BACKENDS:
            raise ScenarioError(
                f"unknown cooling backend {cooling_backend!r}; expected "
                f"one of {COOLING_BACKENDS}"
            )
        self.spec = resolve_spec(system)
        self.fidelity = fidelity
        self.warm_cache = warm_cache
        self.cooling_backend = cooling_backend
        self._datasets: dict[str, TelemetryDataset] = {}
        self._bundle = None
        self._bundle_explicit = surrogates is not None
        self._bundle_path: Path | None = None
        if surrogates is not None:
            from repro.fastpath.bundle import SurrogateBundle

            if isinstance(surrogates, SurrogateBundle):
                surrogates.check_spec(self.spec)
                self._bundle = surrogates
            else:
                self._bundle_path = Path(surrogates)

    def dataset(self, path: str | Path) -> TelemetryDataset:
        """Load a telemetry dataset, cached per path."""
        key = str(path)
        if key not in self._datasets:
            self._datasets[key] = TelemetryDataset.load(path)
        return self._datasets[key]

    def surrogates(self, *, cooling: bool = True):
        """The fast-path model bundle for this twin (cached).

        Resolution order: a bundle passed at construction, a bundle
        path passed at construction (loaded and spec-checked once),
        else train-on-first-use via
        :func:`repro.fastpath.train.default_bundle`.  ``cooling=False``
        is satisfied by any cached bundle; a coupled request upgrades a
        cached power-only bundle.
        """
        from repro.fastpath.bundle import SurrogateBundle
        from repro.fastpath.train import default_bundle

        if self._bundle is None and self._bundle_path is not None:
            self._bundle = SurrogateBundle.load(
                self._bundle_path, spec=self.spec
            )
        if self._bundle is not None and (
            self._bundle_explicit or self._bundle.has_cooling or not cooling
        ):
            # An explicitly attached bundle is authoritative even if it
            # lacks cooling — the engine raises a clear error rather
            # than silently retraining over the user's model.
            return self._bundle
        self._bundle = default_bundle(self.spec, cooling=cooling)
        return self._bundle

    def use_surrogates(self, bundle) -> "DigitalTwin":
        """Attach a trained bundle (spec-checked); returns self."""
        bundle.check_spec(self.spec)
        self._bundle = bundle
        self._bundle_explicit = True
        return self

    def recipe(self) -> tuple[str, str, str, dict | None]:
        """What rebuilds this twin in another process (:func:`rebuild_twin`).

        A picklable tuple: the canonical spec JSON, the fidelity, the
        cooling backend and the attached surrogate bundle's document.
        Only an explicitly attached/loaded bundle is shipped, never a
        train-on-demand default (workers memoize their own); datasets
        and the warm cache stay behind.
        """
        return (
            dumps_system(self.spec, indent=None),
            self.fidelity,
            self.cooling_backend,
            self.surrogates().to_doc() if self._bundle_explicit else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DigitalTwin(spec={self.spec.name!r}, "
            f"fidelity={self.fidelity!r})"
        )


def rebuild_twin(recipe: tuple[str, str, str, dict | None]) -> DigitalTwin:
    """The twin a :meth:`DigitalTwin.recipe` describes, with a fresh
    process-local :class:`~repro.service.warmcache.WarmStateCache`.

    Worker processes (the cell executor's pool and the service's
    :class:`~repro.service.workers.WorkerPool`) call it once each, so
    every coupled cell after a worker's first per wet-bulb skips the
    cooling warmup; warmup is deterministic, so results never change.
    """
    from repro.fastpath.bundle import SurrogateBundle
    from repro.service.warmcache import WarmStateCache

    spec_json, fidelity, cooling_backend, doc = recipe
    return DigitalTwin(
        loads_system(spec_json),
        fidelity=fidelity,
        surrogates=None if doc is None else SurrogateBundle.from_doc(doc),
        warm_cache=WarmStateCache(),
        cooling_backend=cooling_backend,
    )


def as_twin(obj: DigitalTwin | str | Path | SystemSpec) -> DigitalTwin:
    """Coerce a twin / spec / name / path into a :class:`DigitalTwin`."""
    if isinstance(obj, DigitalTwin):
        return obj
    return DigitalTwin(obj)


__all__ = [
    "DigitalTwin",
    "as_twin",
    "rebuild_twin",
    "resolve_spec",
    "FIDELITIES",
    "COOLING_BACKENDS",
]
