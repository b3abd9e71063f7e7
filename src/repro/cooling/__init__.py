"""Transient thermo-fluid cooling model of the CEP + CDU loops.

This package is the Python substitution for the paper's Modelica
(TRANSFORM + Modelica Buildings Library) cooling model exported as an
FMU: a lumped-parameter transient network of thermal capacitance
volumes, quadratic pump/resistance hydraulics, epsilon-NTU heat
exchangers, Merkel-style evaporative cooling towers, PID controllers,
and the staging state machines of paper section III-C5, assembled per
Fig. 5 and wrapped in an FMI-like stepping interface
(:class:`repro.cooling.fmu.CoolingFMU`).

Inputs per 15 s step: heat extracted per CDU (W, 25 values) and wet-bulb
temperature; outputs: the 317 quantities enumerated in section III-C4.

Two interchangeable stepping backends share one state representation,
the component object graph: the default ``backend="fused"`` steps it
through a one-lane :class:`repro.batch.kernel.BatchedPlantKernel` (the
one plant kernel, which holds the CDU bank in its batch row and the
primary and tower loops in the lane's facility record beside it;
several times faster), and ``backend="reference"`` walks the graph
itself (kept as the oracle the fused backend equals bit for bit).
"""

from repro.cooling.properties import CoolantProperties, WATER
from repro.cooling.plant import BACKENDS, CoolingPlant, PlantState
from repro.cooling.fmu import CoolingFMU, FmuState
from repro.cooling.autocsm import generate_plant, autocsm_report

__all__ = [
    "CoolantProperties",
    "WATER",
    "BACKENDS",
    "CoolingPlant",
    "PlantState",
    "CoolingFMU",
    "FmuState",
    "generate_plant",
    "autocsm_report",
]
