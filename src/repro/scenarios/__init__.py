"""Scenario-first experiment API (the batch front door of the twin).

A :class:`Scenario` is a declarative, seedable, JSON-round-trippable
description of one experiment; ``scenario.run(twin)`` executes it on
the streaming RAPS engine; an :class:`ExperimentSuite` runs many of
them — optionally across worker processes — against one shared system
spec and tabulates the results.  A :class:`Campaign` adds a persistent
spine: every finished cell of a sweep lands in an on-disk artifact
directory (:mod:`repro.scenarios.artifacts`) that reloads bit-identical
tables and resumes interrupted runs without recomputation.

Scenario kinds (all JSON round-trippable via ``Scenario.from_dict``):

========================  =================================================
``synthetic``             Poisson synthetic workload at fixed wet-bulb
``replay``                telemetry replay at recorded start times
``verification``          one Table III operating point (idle/hpl/peak)
``benchmark-sequence``    Fig. 8 HPL + OpenMxP sequence at recorded starts
``whatif``                counterfactual conversion-chain study (IV-3)
``generated``             parametric workload generators (+faults/weather)
``sweep``                 one parameter over a value list
``grid-sweep``            cartesian grid over several parameters at once
``lhs-sweep``             seeded latin-hypercube sample of a parameter box
========================  =================================================

Quickstart::

    from repro.scenarios import (
        DigitalTwin, ExperimentSuite, SyntheticScenario, WhatIfScenario,
    )

    twin = DigitalTwin("frontier")
    result = SyntheticScenario(duration_s=2 * 3600, seed=42).run(twin)
    print(result.statistics.report())

    suite = ExperimentSuite(twin)
    suite.add(VerificationScenario(point="idle"))
    suite.add(VerificationScenario(point="peak"))
    suite.add(WhatIfScenario(modification="direct-dc"))
    print(suite.run(workers=3).comparison_table())

Every scenario also carries a declarative ``fidelity`` field (``"full"``
| ``"surrogate"`` | ``""`` = inherit the twin's): the surrogate setting
swaps the L4 engine for the :mod:`repro.fastpath` surrogate backend —
same protocol, milliseconds per run — so whole suites and campaigns
move to the fast path unchanged.

Persisted campaign (resumable, comparable across code revisions)::

    from repro.scenarios import Campaign, GridSweepScenario

    sweep = GridSweepScenario(
        base=SyntheticScenario(duration_s=1800.0, with_cooling=False),
        grid={"wetbulb_c": (12.0, 18.0, 24.0), "seed": (0, 1, 2, 3)},
    )
    campaign = Campaign.create("artifacts/wb-grid", [sweep])
    campaign.run(workers=4)
    print(Campaign.open("artifacts/wb-grid").load().comparison_table())
"""

from repro.scenarios.artifacts import (
    CampaignStore,
    StoredScenarioResult,
    git_revision,
    spec_sha256,
)
from repro.scenarios.base import (
    SCENARIO_TYPES,
    RunPlan,
    Scenario,
    register_scenario,
)
from repro.scenarios.campaign import Campaign
from repro.scenarios.generated import GeneratedScenario
from repro.scenarios.library import (
    BaseSweepScenario,
    BenchmarkSequenceScenario,
    GridSweepScenario,
    LatinHypercubeSweepScenario,
    ReplayScenario,
    SweepScenario,
    SyntheticScenario,
    VerificationScenario,
    WhatIfScenario,
)
from repro.scenarios.result import ScenarioResult, format_summary_row
from repro.scenarios.suite import ExperimentSuite, SuiteResult
from repro.scenarios.twin import FIDELITIES, DigitalTwin, as_twin, resolve_spec

__all__ = [
    "FIDELITIES",
    "Scenario",
    "RunPlan",
    "SCENARIO_TYPES",
    "register_scenario",
    "SyntheticScenario",
    "ReplayScenario",
    "VerificationScenario",
    "BenchmarkSequenceScenario",
    "WhatIfScenario",
    "GeneratedScenario",
    "BaseSweepScenario",
    "SweepScenario",
    "GridSweepScenario",
    "LatinHypercubeSweepScenario",
    "ScenarioResult",
    "format_summary_row",
    "ExperimentSuite",
    "SuiteResult",
    "Campaign",
    "CampaignStore",
    "StoredScenarioResult",
    "spec_sha256",
    "git_revision",
    "DigitalTwin",
    "as_twin",
    "resolve_spec",
]
