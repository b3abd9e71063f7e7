"""ExaDigiT reproduction: a digital twin for liquid-cooled supercomputers.

A complete Python reimplementation of the ExaDigiT framework (Brewer et
al., "A Digital Twin Framework for Liquid-cooled Supercomputers as
Demonstrated at Exascale", SC 2024):

- **RAPS** -- resource allocation + dynamic power simulation with
  conversion-loss modeling (:mod:`repro.scheduler`, :mod:`repro.power`,
  :mod:`repro.core`),
- **Cooling model** -- a transient thermo-fluid model of the central
  energy plant and the 25 CDU loops behind an FMI-like interface
  (:mod:`repro.cooling`),
- **Scenario API** -- declarative, seedable, JSON-serializable
  experiment descriptions with streaming execution, parallel batch
  runs, and persisted sweep campaigns that resume and compare across
  code revisions (:mod:`repro.scenarios`),
- **Multi-fidelity fast path** -- trained surrogates as a first-class
  execution backend (``fidelity="surrogate"``), serialized model
  bundles with provenance, and screen-then-refine
  :class:`MultiFidelityCampaign` drivers (:mod:`repro.fastpath`),
- **Workload generators** -- parametric, seed-deterministic,
  content-addressed generators for arrivals, fault injection, weather
  years, and grid signals, plus stress-suite campaigns that generate,
  run, and validate whole grids (:mod:`repro.workloads`),
- **Visual analytics** -- scene generation, dashboards, and exports
  (:mod:`repro.viz`),
- **Generalization** -- JSON system specs, pluggable telemetry parsers,
  and automated cooling-model generation (:mod:`repro.config`,
  :mod:`repro.telemetry`, :mod:`repro.cooling.autocsm`).

Quickstart — one scenario, streamed::

    from repro import DigitalTwin, SyntheticScenario

    twin = DigitalTwin("frontier")
    scenario = SyntheticScenario(duration_s=4 * 3600, seed=42)
    outcome = scenario.run(twin)
    print(outcome.statistics.report())

Quickstart — a parallel experiment suite::

    from repro import ExperimentSuite, VerificationScenario, WhatIfScenario

    suite = ExperimentSuite("frontier")
    for point in ("idle", "hpl", "peak"):
        suite.add(VerificationScenario(point=point, with_cooling=False))
    suite.add(WhatIfScenario(modification="direct-dc"))
    print(suite.run(workers=4).comparison_table())

Quickstart — a persisted sweep campaign (resumable, reloadable)::

    from repro import Campaign, GridSweepScenario, SyntheticScenario

    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=1800.0, with_cooling=False),
        grid={"wetbulb_c": (12.0, 18.0, 24.0), "seed": (0, 1, 2, 3)},
    )
    Campaign.create("artifacts/wb-grid", [sweep]).run(workers=4)
    print(Campaign.open("artifacts/wb-grid").load().comparison_table())

Quickstart — the same scenario on the surrogate fast path::

    from repro import DigitalTwin, SyntheticScenario

    twin = DigitalTwin("frontier", fidelity="surrogate")
    outcome = SyntheticScenario(duration_s=4 * 3600, seed=42).run(twin)

The pre-scenario ``Simulation`` facade and its what-if helper were
removed in 1.15.0.  Build a :class:`DigitalTwin` and run scenarios on
it: a synthetic run is ``SyntheticScenario(duration_s=d).run(twin)``,
and a what-if study is ``WhatIfScenario(modification=kind,
duration_s=d).run(twin, dataset=day).comparison``.
"""

from repro.config import FRONTIER, frontier_spec, load_system, load_builtin_system
from repro.core import (
    PhaseProfiler,
    RapsEngine,
    SimulationResult,
    StepState,
    PhysicalTwin,
    ReplayValidation,
)
from repro.cooling import CoolingFMU, CoolingPlant, generate_plant
from repro.fastpath import (
    MultiFidelityCampaign,
    SurrogateBundle,
    SurrogateEngine,
)
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    get_registry,
    use_registry,
)
from repro.power import SystemPowerModel
from repro.scenarios import (
    BenchmarkSequenceScenario,
    Campaign,
    CampaignStore,
    DigitalTwin,
    ExperimentSuite,
    GridSweepScenario,
    LatinHypercubeSweepScenario,
    ReplayScenario,
    Scenario,
    ScenarioResult,
    SuiteResult,
    SweepScenario,
    SyntheticScenario,
    VerificationScenario,
    WhatIfScenario,
)
from repro.scenarios import GeneratedScenario
from repro.telemetry import SyntheticTelemetryGenerator, TelemetryDataset
from repro.workloads import (
    BurstyWorkload,
    DiurnalWorkload,
    FaultInjection,
    GridSignalGenerator,
    HeavyTailWorkload,
    JobMixMorph,
    StressSuite,
    WeatherYear,
    WorkloadGenerator,
)

__version__ = "1.20.0"

__all__ = [
    "FRONTIER",
    "frontier_spec",
    "load_system",
    "load_builtin_system",
    "RapsEngine",
    "SimulationResult",
    "StepState",
    "PhysicalTwin",
    "ReplayValidation",
    "CoolingFMU",
    "CoolingPlant",
    "PhaseProfiler",
    "generate_plant",
    "SystemPowerModel",
    "Scenario",
    "SyntheticScenario",
    "BenchmarkSequenceScenario",
    "ReplayScenario",
    "VerificationScenario",
    "WhatIfScenario",
    "SweepScenario",
    "GridSweepScenario",
    "LatinHypercubeSweepScenario",
    "ScenarioResult",
    "ExperimentSuite",
    "SuiteResult",
    "Campaign",
    "CampaignStore",
    "DigitalTwin",
    "SurrogateBundle",
    "SurrogateEngine",
    "MultiFidelityCampaign",
    "SyntheticTelemetryGenerator",
    "TelemetryDataset",
    "GeneratedScenario",
    "WorkloadGenerator",
    "DiurnalWorkload",
    "BurstyWorkload",
    "HeavyTailWorkload",
    "JobMixMorph",
    "FaultInjection",
    "WeatherYear",
    "GridSignalGenerator",
    "StressSuite",
    "MetricsRegistry",
    "FlightRecorder",
    "Tracer",
    "get_registry",
    "use_registry",
    "__version__",
]
