"""Whole-system power pipeline: nodes -> chassis -> racks -> CDUs -> system.

Implements the aggregation of paper Eqs. 3-4 and section III-B2:

1. per-node 48 V power from utilizations (Eq. 3),
2. SIVOC + rectifier conversion through a pluggable chain (Eqs. 1-2),
3. rack power = sum of its chassis AC + 32 switches x 250 W (Eq. 4),
4. CDU group power = its (up to) 3 racks,
5. system power = all racks + CDU pump power (8.7 kW per CDU),
6. heat to the cooling model = CDU group power x cooling efficiency
   (paper: 0.945).

Step 1 and the SIVOC half of step 2 depend on a node only through its
(partition, running-job slot), so they run once per (partition, slot) on
a slot table; one ``take`` then gathers node powers and SIVOC inputs to
the nodes.  Everything after is vectorized with ``np.bincount``
scatter-adds over precomputed topology index maps; there is no Python
loop over nodes, chassis, or racks.  :meth:`SystemPowerModel.evaluate_lanes`
runs K lanes (batched scenario runs) through the same arrays in one call;
:meth:`SystemPowerModel.evaluate` is its one-lane case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.schema import SystemSpec
from repro.exceptions import PowerModelError
from repro.power.components import NodePowerModel
from repro.power.conversion import ConversionChain


@dataclass(frozen=True)
class SystemTopology:
    """Index maps from nodes up the packaging hierarchy.

    For multi-partition systems, racks are numbered per-partition and then
    concatenated, matching the node concatenation order in
    :class:`~repro.power.components.NodePowerModel`.
    """

    chassis_of_node: np.ndarray
    rack_of_node: np.ndarray
    rack_of_chassis: np.ndarray
    cdu_of_rack: np.ndarray
    num_nodes: int
    num_chassis: int
    num_racks: int
    num_cdus: int
    switch_power_per_rack_w: np.ndarray
    rectifiers_per_chassis: int

    @classmethod
    def from_spec(cls, spec: SystemSpec) -> "SystemTopology":
        chassis_of_node_parts = []
        rack_of_node_parts = []
        rack_of_chassis_parts = []
        switch_parts = []
        chassis_base = 0
        rack_base = 0
        rect_per_chassis = None
        for p in spec.partitions:
            rk = p.rack
            if rect_per_chassis is None:
                rect_per_chassis = rk.rectifiers_per_chassis
            elif rect_per_chassis != rk.rectifiers_per_chassis:
                raise PowerModelError(
                    "partitions with differing rectifiers-per-chassis are "
                    "not supported in one conversion chain"
                )
            nodes = np.arange(p.total_nodes)
            node_chassis = chassis_base + nodes // rk.nodes_per_chassis
            node_rack = rack_base + nodes // rk.nodes_per_rack
            chassis_of_node_parts.append(node_chassis)
            rack_of_node_parts.append(node_rack)
            n_chassis = int(node_chassis.max()) - chassis_base + 1
            chassis = np.arange(n_chassis)
            chassis_per_rack = rk.chassis_per_rack
            rack_of_chassis_parts.append(rack_base + chassis // chassis_per_rack)
            n_racks = p.total_racks
            switch_parts.append(np.full(n_racks, rk.switch_power_per_rack_w))
            chassis_base += n_chassis
            rack_base += n_racks
        chassis_of_node = np.concatenate(chassis_of_node_parts)
        rack_of_node = np.concatenate(rack_of_node_parts)
        rack_of_chassis = np.concatenate(rack_of_chassis_parts)
        switch_power = np.concatenate(switch_parts)
        num_racks = rack_base
        racks = np.arange(num_racks)
        cdu_of_rack = np.minimum(
            racks // spec.cooling.racks_per_cdu, spec.cooling.num_cdus - 1
        )
        return cls(
            chassis_of_node=chassis_of_node,
            rack_of_node=rack_of_node,
            rack_of_chassis=rack_of_chassis,
            cdu_of_rack=cdu_of_rack,
            num_nodes=int(chassis_of_node.size),
            num_chassis=chassis_base,
            num_racks=num_racks,
            num_cdus=spec.cooling.num_cdus,
            switch_power_per_rack_w=switch_power,
            rectifiers_per_chassis=int(rect_per_chassis),
        )


@dataclass
class PowerResult:
    """One power evaluation of the whole system (all watts).

    Attributes
    ----------
    node_power_w:
        Per-node 48 V output power, shape (num_nodes,).
    rack_power_w:
        Per-rack AC power including switches (Eq. 4), shape (num_racks,).
    cdu_power_w:
        Per-CDU rack-group power, shape (num_cdus,).
    cdu_heat_w:
        Heat delivered to each CDU's liquid loop (x cooling efficiency).
    sivoc_loss_w / rectifier_loss_w:
        System-total conversion losses by stage (Eq. 2 decomposition).
    system_power_w:
        Total facility-side IT power: racks + CDU pumps.
    compute_output_w:
        Total 48 V power delivered to nodes (P_S48V summed): the
        ``node_power_w`` sum the conversion chain takes.
    """

    node_power_w: np.ndarray
    rack_power_w: np.ndarray
    cdu_power_w: np.ndarray
    cdu_heat_w: np.ndarray
    sivoc_loss_w: float
    rectifier_loss_w: float
    switch_power_w: float
    cdu_pump_power_w: float
    system_power_w: float
    compute_output_w: float

    @property
    def loss_w(self) -> float:
        """Total conversion loss P_L (Eq. 2)."""
        return self.sivoc_loss_w + self.rectifier_loss_w

    @property
    def compute_input_w(self) -> float:
        """Total AC power drawn by the conversion chain (P_RAC summed)."""
        return self.compute_output_w + self.loss_w

    @property
    def chain_efficiency(self) -> float:
        """eta_system = P_S48V / P_RAC (Eq. 1)."""
        inp = self.compute_input_w
        return self.compute_output_w / inp if inp > 0 else 1.0

    @property
    def loss_fraction(self) -> float:
        """Conversion loss as a fraction of total system power."""
        return self.loss_w / self.system_power_w if self.system_power_w else 0.0


class SystemPowerModel:
    """Vectorized power evaluation for a configured system.

    Parameters
    ----------
    spec:
        The system description.
    chain:
        Optional conversion-chain override (smart-rectifier or direct-DC
        what-ifs); defaults to the baseline equal-sharing chain.
    """

    def __init__(self, spec: SystemSpec, *, chain=None) -> None:
        self.spec = spec
        self.topology = SystemTopology.from_spec(spec)
        self.nodes = NodePowerModel(spec.partitions)
        if self.nodes.total_nodes != self.topology.num_nodes:
            raise PowerModelError("topology/node-model size mismatch")
        if chain is None:
            chain = ConversionChain(
                spec.power.rectifier,
                spec.power.sivoc,
                self.topology.rectifiers_per_chassis,
                self.topology.chassis_of_node,
                self.topology.num_chassis,
            )
        self.chain = chain
        t = self.topology
        self._total_switch_w = float(np.sum(t.switch_power_per_rack_w))
        self._cdu_pump_total_w = spec.power.cdu_pump_power_w * t.num_cdus
        self._rows = 0
        self._idle: PowerResult | None = None

    def _offset_maps(self, K: int) -> tuple[np.ndarray, ...]:
        """Flattened lane-offset (chassis, rack, CDU) maps for at least
        ``K`` rows: row ``k`` scatters into bins
        ``[k * count, (k + 1) * count)``."""
        if K > self._rows:
            t = self.topology
            lane = np.arange(K, dtype=np.int64)[:, None]
            self._maps = (
                (t.chassis_of_node + lane * t.num_chassis).ravel(),
                (t.rack_of_chassis + lane * t.num_racks).ravel(),
                (t.cdu_of_rack + lane * t.num_cdus).ravel(),
            )
            self._rows = K
        return self._maps

    def _gather(self, cpu_rows, gpu_rows, slot_maps) -> np.ndarray:
        """``(2, K, N)``: the node powers over their SIVOC inputs.  Eq. 3
        and the SIVOC curve run on the slot table, and one ``take``
        gathers both to the nodes.  The ``(K, N)`` index is freed on
        return, before the later stages allocate."""
        table, index = self.nodes.slot_table(cpu_rows, gpu_rows, slot_maps)
        both = np.concatenate((table, self.chain.sivocs.input_power(table)))
        return both.reshape(2, -1).take(index, axis=1)

    # -- evaluation -------------------------------------------------------------

    def evaluate(
        self,
        cpu_util: np.ndarray,
        gpu_util: np.ndarray,
        slot_of_node: np.ndarray | None = None,
    ) -> PowerResult:
        """Full pipeline for one instant of per-node utilizations.

        With ``slot_of_node`` the utilizations are per running-job slot
        and node ``n`` runs at slot ``slot_of_node[n]`` (-1: idle);
        without it they are per node (the identity slot map).  This is
        the K = 1 case of :meth:`evaluate_lanes`.
        """
        if slot_of_node is None:
            cpu_util, gpu_util, slot_of_node = self.nodes.as_slots(
                cpu_util, gpu_util
            )
        return self.evaluate_lanes(
            (cpu_util,), (gpu_util,), (slot_of_node,)
        )[0]

    def evaluate_lanes(
        self, cpu_rows, gpu_rows, slot_maps
    ) -> list[PowerResult]:
        """The pipeline for K lanes in one call, one result per lane.

        Lane ``k`` has per-slot utilizations ``cpu_rows[k]`` /
        ``gpu_rows[k]`` and node-to-slot map ``slot_maps[k]`` (-1: idle).
        Eq. 3 and the SIVOC curve run once per (lane, partition, slot) on
        the concatenated slot table
        (:meth:`~repro.power.components.NodePowerModel.slot_table`), and
        one ``take`` gathers the ``(K, N)`` node powers and SIVOC inputs
        (:meth:`_gather`).  Every later stage is a lane-offset bincount
        or a row sum, so each lane gets the bits the K = 1 case gives it
        alone; its 48 V output is the node-power row sum the chain takes.
        With K > 1 each lane's ``node_power_w`` is its own array, so a
        kept result never pins the whole block.
        """
        t = self.topology
        nodes = self._gather(cpu_rows, gpu_rows, slot_maps)
        K = nodes.shape[1]
        chassis_flat, rack_flat, cdu_flat = self._offset_maps(K)
        chassis_ac, sivoc_loss, rect_loss, output_w = (
            self.chain.convert_rows(nodes, chassis_flat)
        )
        rack_w = np.bincount(
            rack_flat[: K * t.num_chassis],
            weights=chassis_ac.ravel(),
            minlength=K * t.num_racks,
        ).reshape(K, t.num_racks)
        rack_w += t.switch_power_per_rack_w
        cdu_w = np.bincount(
            cdu_flat[: K * t.num_racks],
            weights=rack_w.ravel(),
            minlength=K * t.num_cdus,
        ).reshape(K, t.num_cdus)
        cdu_heat = cdu_w * self.spec.power.cooling_efficiency
        pump_w = self._cdu_pump_total_w
        system_w = (rack_w.sum(axis=1) + pump_w).tolist()
        node_w = nodes[0]
        node_rows = [node_w[0]] if K == 1 else [row.copy() for row in node_w]
        return [
            PowerResult(
                node_power_w=node_rows[i],
                rack_power_w=rack_w[i],
                cdu_power_w=cdu_w[i],
                cdu_heat_w=cdu_heat[i],
                sivoc_loss_w=sivoc_loss[i],
                rectifier_loss_w=rect_loss[i],
                switch_power_w=self._total_switch_w,
                cdu_pump_power_w=pump_w,
                system_power_w=system_w[i],
                compute_output_w=output_w[i],
            )
            for i in range(K)
        ]

    def idle(self) -> PowerResult:
        """Every node idle: the evaluation that seeds each cooling
        warmup, computed once per model."""
        if self._idle is None:
            n = self.nodes.total_nodes
            self._idle = self.evaluate(np.zeros(n), np.zeros(n))
        return self._idle

    def evaluate_uniform(self, cpu_util: float, gpu_util: float) -> PowerResult:
        """Every node at the same utilization (Table III verification)."""
        n = self.nodes.total_nodes
        return self.evaluate(
            np.full(n, float(cpu_util)), np.full(n, float(gpu_util))
        )

    # -- reference points ----------------------------------------------------------

    def idle_power_w(self) -> float:
        """System power with all nodes idle (Table III row 1)."""
        return self.idle().system_power_w

    def peak_power_w(self) -> float:
        """System power with all nodes at 100 % (Table III row 3)."""
        return self.evaluate_uniform(1.0, 1.0).system_power_w

    def breakdown_at_peak(self) -> dict[str, float]:
        """Component-wise peak power decomposition (paper Fig. 4), watts."""
        parts: dict[str, float] = {}
        for p in self.spec.partitions:
            n = p.total_nodes
            spec = p.node
            parts["gpus"] = parts.get("gpus", 0.0) + n * spec.gpus_per_node * spec.gpu_power_max_w
            parts["cpus"] = parts.get("cpus", 0.0) + n * spec.cpus_per_node * spec.cpu_power_max_w
            parts["ram"] = parts.get("ram", 0.0) + n * spec.ram_power_w
            parts["nvme"] = parts.get("nvme", 0.0) + n * spec.nvme_per_node * spec.nvme_power_w
            parts["nics"] = parts.get("nics", 0.0) + n * spec.nics_per_node * spec.nic_power_w
        result = self.evaluate_uniform(1.0, 1.0)
        parts["switches"] = self._total_switch_w
        parts["cdu_pumps"] = self._cdu_pump_total_w
        parts["sivoc_loss"] = result.sivoc_loss_w
        parts["rectifier_loss"] = result.rectifier_loss_w
        parts["total"] = result.system_power_w
        return parts


__all__ = ["SystemTopology", "PowerResult", "SystemPowerModel"]
