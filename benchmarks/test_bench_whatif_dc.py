"""Paper section IV-3 what-if #2: direct 380 V DC distribution.

"A second test ... focused on switching the Frontier DT to direct 380V
DC power, instead of AC power.  This modification substantially
increased the system efficiency from 93.3 % to 97.3 %, a potential
savings of $542k per year, while also reducing the carbon footprint by
8.2 %."

Shape assertions: baseline chain efficiency ~93 %, DC chain ~97.3 %,
annualized savings in the published magnitude class, CO2 reduction
~8 %.  The study runs twice — serially through ``scenario.run`` and as
two lanes of a batched run replaying the saved day — and both
executions must give the same comparison.  The timed kernel is the DC
conversion of one full-system state.
"""

import dataclasses

import pytest

from benchmarks.conftest import emit
from repro.batch import run_batched
from repro.scenarios import DigitalTwin, WhatIfScenario
from repro.telemetry.synthesis import (
    SyntheticTelemetryGenerator,
    WorkloadDayParams,
)

HOURS = 4.0


@pytest.fixture(scope="module")
def comparisons(frontier, tmp_path_factory):
    """The study's comparison under each execution."""
    gen = SyntheticTelemetryGenerator(frontier, seed=542)
    params = WorkloadDayParams(
        mean_arrival_s=45.0, mean_nodes_per_job=300.0, mean_runtime_s=2400.0,
        mean_gpu_util=0.7,
    )
    day = gen.day(0, params=params)
    path = tmp_path_factory.mktemp("whatif-dc") / "day"
    day.save(path)
    twin = DigitalTwin(frontier)
    scenario = WhatIfScenario(
        modification="direct-dc", duration_s=HOURS * 3600.0
    )
    serial = scenario.run(twin, dataset=day)
    (batched,) = run_batched(
        [dataclasses.replace(scenario, dataset_path=str(path))], twin
    )
    return {"serial": serial.comparison, "batched": batched.comparison}


@pytest.mark.parametrize("execution", ["serial", "batched"])
def test_whatif_direct_dc(execution, comparisons, benchmark, frontier):
    comparison = comparisons[execution]
    emit(f"What-if #2 - Direct 380 V DC distribution (paper IV-3, "
         f"{execution})", comparison.report())
    # Both executions replay the same day: the same comparison.
    assert comparison == comparisons["serial"]

    # Paper: 93.3 % -> 97.3 %.
    assert comparison.baseline_efficiency == pytest.approx(0.933, abs=0.01)
    assert comparison.modified_efficiency == pytest.approx(0.973, abs=0.006)
    assert comparison.efficiency_gain_percent == pytest.approx(4.0, abs=1.0)

    # Annualized savings in the published magnitude class (~$542k at the
    # paper's 16.9 MW average; proportional at this day's load).
    assert 200_000.0 < comparison.annual_savings_usd < 900_000.0

    # Carbon footprint reduced ~8 % (paper: 8.2 %).
    assert comparison.co2_reduction_percent == pytest.approx(8.2, abs=2.0)

    # DC strictly dominates the baseline.
    assert comparison.modified_mean_power_mw < comparison.baseline_mean_power_mw
    assert comparison.modified_loss_mw < 0.5 * comparison.baseline_loss_mw

    # Timed kernel: DC conversion of one full-system state.
    from repro.power.dc_power import DirectDcChain
    from repro.power.system import SystemPowerModel

    base = SystemPowerModel(frontier)
    topo = base.topology
    chain = DirectDcChain(
        frontier.power.sivoc, topo.chassis_of_node, topo.num_chassis
    )
    node_w = base.evaluate_uniform(0.35, 0.55).node_power_w
    chassis_dc, _, _ = benchmark(chain.convert, node_w)
    assert chassis_dc.size == topo.num_chassis
