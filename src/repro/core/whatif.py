"""What-if comparison machinery (paper section IV-3).

Builds the modified conversion chains (smart load-sharing rectifiers,
380 V direct-DC distribution) and reduces a baseline and a modified
replay of the same workload to the efficiency delta, annualized cost
savings, and carbon-footprint reduction — the virtual-modification
methodology of the paper's two counterfactual studies.

The scenario package :mod:`repro.scenarios` runs these comparisons,
:class:`~repro.scenarios.library.WhatIfScenario`, whose two replays are
two plans of one scenario (and two lanes of a batched run).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.schema import SystemSpec
from repro.core.engine import SimulationResult
from repro.exceptions import SimulationError
from repro.power.dc_power import DirectDcChain
from repro.power.emissions import EmissionsModel
from repro.power.smart_rectifier import SmartRectifierChain
from repro.power.system import SystemTopology


@dataclass(frozen=True)
class ScenarioComparison:
    """Baseline-vs-modified deltas for one what-if study."""

    name: str
    baseline_mean_power_mw: float
    modified_mean_power_mw: float
    baseline_efficiency: float
    modified_efficiency: float
    baseline_loss_mw: float
    modified_loss_mw: float
    annual_savings_usd: float
    co2_reduction_percent: float

    @property
    def power_saving_mw(self) -> float:
        return self.baseline_mean_power_mw - self.modified_mean_power_mw

    @property
    def efficiency_gain_percent(self) -> float:
        return (self.modified_efficiency - self.baseline_efficiency) * 100.0

    def report(self) -> str:
        return "\n".join(
            [
                f"What-if scenario: {self.name}",
                "-" * 44,
                f"chain efficiency:  {self.baseline_efficiency * 100:.2f} % -> "
                f"{self.modified_efficiency * 100:.2f} % "
                f"({self.efficiency_gain_percent:+.2f} pp)",
                f"mean power:        {self.baseline_mean_power_mw:.2f} MW -> "
                f"{self.modified_mean_power_mw:.2f} MW "
                f"({-self.power_saving_mw * 1000:+.0f} kW)",
                f"conversion loss:   {self.baseline_loss_mw:.2f} MW -> "
                f"{self.modified_loss_mw:.2f} MW",
                f"annual savings:    ${self.annual_savings_usd:,.0f}",
                f"CO2 reduction:     {self.co2_reduction_percent:.1f} %",
            ]
        )


#: The built-in conversion-chain modifications :func:`_make_chain` builds.
MODIFICATIONS = ("smart-rectifier", "direct-dc")


def _make_chain(spec: SystemSpec, kind: str):
    topo = SystemTopology.from_spec(spec)
    if kind == "smart-rectifier":
        return SmartRectifierChain(
            spec.power.rectifier,
            spec.power.sivoc,
            topo.rectifiers_per_chassis,
            topo.chassis_of_node,
            topo.num_chassis,
        )
    if kind == "direct-dc":
        return DirectDcChain(
            spec.power.sivoc,
            topo.chassis_of_node,
            topo.num_chassis,
            distribution_efficiency=spec.power.dc_distribution_efficiency,
        )
    raise SimulationError(
        f"unknown what-if scenario {kind!r}; "
        f"expected one of {sorted(MODIFICATIONS)}"
    )


def compare_results(
    name: str,
    spec: SystemSpec,
    baseline: SimulationResult,
    modified: SimulationResult,
) -> ScenarioComparison:
    """Reduce two replays of the same workload to a scenario report."""
    emissions = EmissionsModel(spec.economics)
    saving_w = baseline.mean_power_w - modified.mean_power_w
    annual = emissions.annualized_cost_usd(max(saving_w, 0.0)) - (
        emissions.annualized_cost_usd(max(-saving_w, 0.0))
    )
    base_co2 = emissions.co2_tons(
        baseline.energy_mwh, baseline.mean_chain_efficiency
    )
    mod_co2 = emissions.co2_tons(
        modified.energy_mwh, modified.mean_chain_efficiency
    )
    co2_red = (base_co2 - mod_co2) / base_co2 * 100.0 if base_co2 else 0.0
    return ScenarioComparison(
        name=name,
        baseline_mean_power_mw=baseline.mean_power_w / 1e6,
        modified_mean_power_mw=modified.mean_power_w / 1e6,
        baseline_efficiency=baseline.mean_chain_efficiency,
        modified_efficiency=modified.mean_chain_efficiency,
        baseline_loss_mw=baseline.mean_loss_w / 1e6,
        modified_loss_mw=modified.mean_loss_w / 1e6,
        annual_savings_usd=annual,
        co2_reduction_percent=co2_red,
    )


__all__ = ["MODIFICATIONS", "ScenarioComparison", "compare_results"]
