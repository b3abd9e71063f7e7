"""Parametric workload generators, fault injection, and stress suites.

Every generator is a frozen dataclass with a typed parameter schema,
seed-deterministic output (``generate(spec, duration_s)`` is a pure
function of the generator's fields), JSON round-trip
(``WorkloadGenerator.from_dict(g.to_dict()) == g``), and a
content-addressed identity — :meth:`~repro.workloads.base.WorkloadGenerator.spec_sha`
hashes the canonical parameter document, so campaign artifacts can
record exactly which generated inputs produced them.

Generator catalog, by role:

=================  ========  ============================================
``diurnal``        jobs      day/night NHPP arrivals (thinning)
``mmpp``           jobs      two-state Markov-modulated bursty arrivals
``heavy-tail``     jobs      Pareto node counts, lognormal runtimes
``telemetry-morph`` jobs     telemetry-calibrated day, morphed job mix
``faults``         events    node outages, maintenance, CDU blockage
``weather-year``   wetbulb   seasonal + diurnal + OU-noise wet-bulb trace
``grid-signal``    grid      time-varying carbon intensity / price
=================  ========  ============================================

Quickstart::

    from repro.workloads import DiurnalWorkload, FaultInjection
    from repro.scenarios import GeneratedScenario

    scenario = GeneratedScenario(
        duration_s=1800.0,
        workload=DiurnalWorkload(mean_arrival_s=120.0, seed=7),
        faults=FaultInjection(node_mtbf_s=1800.0, seed=7),
        with_cooling=False,
    )
    result = scenario.run("frontier")

:class:`~repro.workloads.stress.StressSuite` drives whole grids of
generated scenarios through a resumable generate -> run -> validate
campaign, optionally screening at surrogate fidelity first.
"""

from repro.workloads.base import (
    GENERATOR_ROLES,
    GENERATOR_TYPES,
    WorkloadGenerator,
    register_generator,
)
from repro.workloads.arrivals import (
    BurstyWorkload,
    DiurnalWorkload,
    HeavyTailWorkload,
    JobMixMorph,
)
from repro.workloads.faults import FaultInjection
from repro.workloads.weather import GridSignalGenerator, WeatherYear
from repro.workloads.stress import (
    CellValidation,
    StressReport,
    StressSuite,
)

__all__ = [
    "GENERATOR_ROLES",
    "GENERATOR_TYPES",
    "WorkloadGenerator",
    "register_generator",
    "DiurnalWorkload",
    "BurstyWorkload",
    "HeavyTailWorkload",
    "JobMixMorph",
    "FaultInjection",
    "WeatherYear",
    "GridSignalGenerator",
    "CellValidation",
    "StressReport",
    "StressSuite",
]
