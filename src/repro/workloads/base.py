"""Workload-generator core: registry, serialization, content addressing.

A :class:`WorkloadGenerator` is a frozen dataclass of parameters plus a
root ``seed``; ``generate(spec, duration_s)`` maps ``(generator,
params, seed)`` to a payload deterministically, following the
generator-dataset model — data is *addressed by its recipe*.  The
recipe hash is :meth:`WorkloadGenerator.spec_sha`: the SHA-256 of the
canonical JSON of ``to_dict()``, which campaign and service artifacts
persist as workload provenance.

Generators come in four roles, one per scenario input they produce:

=========  ==========================================================
role       payload of ``generate(spec, duration_s)``
=========  ==========================================================
jobs       ``list[repro.scheduler.job.Job]`` (no recorded starts)
events     ``tuple[repro.core.events.FaultEvent, ...]``, time-sorted
wetbulb    ``repro.telemetry.dataset.TimeSeries`` (degC)
grid       ``repro.power.emissions.GridSignal``
=========  ==========================================================

Randomness always flows through :func:`repro.seeding.spawn_rng` keyed
by ``(seed, generator-name, purpose)`` so child streams are stable
under parameter reordering — the precondition for content addressing.

This module must not import :mod:`repro.scenarios` (the scenario layer
imports us for :class:`~repro.scenarios.generated.GeneratedScenario`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass

import numpy as np

from repro.config.schema import SystemSpec
from repro.exceptions import ExaDigiTError
from repro.seeding import spawn_rng


class WorkloadError(ExaDigiTError):
    """Invalid workload-generator parameters or payloads."""


#: Generator kind -> class, populated by :func:`register_generator`.
GENERATOR_TYPES: dict[str, type["WorkloadGenerator"]] = {}

#: Roles a generator may declare.
GENERATOR_ROLES = ("jobs", "events", "wetbulb", "grid")


def register_generator(cls):
    """Class decorator: register a generator under its ``generator`` kind."""
    kind = getattr(cls, "generator", "")
    if not kind:
        raise WorkloadError(f"{cls.__name__} does not declare a generator kind")
    if getattr(cls, "role", "") not in GENERATOR_ROLES:
        raise WorkloadError(
            f"{cls.__name__} role must be one of {GENERATOR_ROLES}"
        )
    if kind in GENERATOR_TYPES:
        raise WorkloadError(f"duplicate generator kind {kind!r}")
    GENERATOR_TYPES[kind] = cls
    return cls


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, str) or value is None:
        return value
    raise WorkloadError(
        f"generator parameters must be scalars, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class WorkloadGenerator:
    """Base of all parametric generators (see module docstring).

    Subclasses are frozen dataclasses declaring class attributes
    ``generator`` (the JSON kind tag) and ``role``, parameter fields
    with defaults, and :meth:`generate`.
    """

    generator = ""  # class attribute, overridden per subclass
    role = ""

    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(
            self.seed, numbers.Integral
        ):
            raise WorkloadError("seed must be an int")
        object.__setattr__(self, "seed", int(self.seed))

    # -- randomness ---------------------------------------------------------

    def rng(self, *key: int | str) -> np.random.Generator:
        """Child stream for ``key``, independent of other purposes."""
        return spawn_rng(self.seed, self.generator, *key)

    # -- generation ---------------------------------------------------------

    def generate(self, spec: SystemSpec, duration_s: float):
        """Produce this generator's payload (see role table)."""
        raise NotImplementedError

    def _check_duration(self, duration_s: float) -> float:
        duration_s = float(duration_s)
        if duration_s <= 0:
            raise WorkloadError("duration_s must be positive")
        return duration_s

    # -- serialization / content addressing ---------------------------------

    def to_dict(self) -> dict:
        doc: dict = {"generator": self.generator}
        for f in dataclasses.fields(self):
            doc[f.name] = _jsonable(getattr(self, f.name))
        return doc

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(doc: dict) -> "WorkloadGenerator":
        if not isinstance(doc, dict):
            raise WorkloadError("generator document must be an object")
        kind = doc.get("generator")
        cls = GENERATOR_TYPES.get(kind)
        if cls is None:
            raise WorkloadError(
                f"unknown generator kind {kind!r}; "
                f"known: {sorted(GENERATOR_TYPES)}"
            )
        params = {k: v for k, v in doc.items() if k != "generator"}
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(params) - names
        if unknown:
            raise WorkloadError(
                f"unknown {kind!r} parameters: {sorted(unknown)}"
            )
        schema = cls.param_schema()
        for name, value in params.items():
            expected = schema[name]["type"]
            if expected == "int":
                ok = not isinstance(value, bool) and isinstance(
                    value, numbers.Integral
                )
            elif expected == "float":
                ok = not isinstance(value, bool) and isinstance(
                    value, numbers.Real
                )
            else:
                ok = True
            if not ok:
                raise WorkloadError(
                    f"{kind!r} parameter {name!r} must be {expected}, "
                    f"got {type(value).__name__}: {value!r}"
                )
        return cls(**params)

    @staticmethod
    def from_json(text: str) -> "WorkloadGenerator":
        return WorkloadGenerator.from_dict(json.loads(text))

    def spec_sha(self) -> str:
        """Content address of ``(generator, params, seed)``."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def param_schema(cls) -> dict[str, dict]:
        """Typed parameter schema: name -> {"type", "default"}."""
        schema: dict[str, dict] = {}
        for f in dataclasses.fields(cls):
            default = (
                None if f.default is dataclasses.MISSING
                else _jsonable(f.default)
            )
            schema[f.name] = {
                "type": getattr(f.type, "__name__", str(f.type)),
                "default": default,
            }
        return schema

    def provenance(self) -> dict:
        """The provenance record artifacts persist for this generator."""
        return {"generator": self.generator, "spec_sha": self.spec_sha()}


__all__ = [
    "WorkloadError",
    "GENERATOR_TYPES",
    "GENERATOR_ROLES",
    "register_generator",
    "WorkloadGenerator",
]
