"""Per-node dynamic power (paper Eq. 3).

``P_node = P_CPU + 4 P_GPU + 4 P_NIC + P_RAM + 2 P_NVMe`` with CPU and GPU
power linearly interpolated between their [idle, max] values by the
time-indexed utilization.  Eq. 3 runs once per (partition, slot) on a
slot table, and one gather fills all 9472 Frontier nodes from it.
"""

from __future__ import annotations

import numpy as np

from repro.config.schema import NodeSpec, PartitionSpec
from repro.exceptions import PowerModelError


def _check_unit(util: np.ndarray) -> None:
    """Raise unless every utilization lies in [0, 1] (NaN included)."""
    if not (util.min(initial=0.0) >= 0.0 and util.max(initial=0.0) <= 1.0):
        raise PowerModelError("utilization values must lie in [0, 1]")


def _eq3(coef, cpu_util, gpu_util):
    """Paper Eq. 3, ``cpu idle + cpu span * cpu + gpu idle + gpu span *
    gpu + static``, summed left to right.

    ``coef`` is (cpu idle, cpu span, gpu idle, gpu span, static), each a
    per-partition column, so the result is a (partition, slot) table.
    """
    cpu_idle, cpu_span, gpu_idle, gpu_span, static = coef
    power = cpu_span * cpu_util
    power += cpu_idle
    power += gpu_idle
    power += gpu_span * gpu_util
    power += static
    return power


class NodePowerModel:
    """Vectorized Eq. 3 evaluator over a (possibly multi-partition) system.

    The Eq. 3 coefficients are constant within a partition, so Eq. 3 runs
    on a slot table: one row per partition, one column per utilization
    pair.  A node reads its power at (its partition, its column), so one
    flat ``take`` fills every node; there is no Python-level loop over
    nodes.  Per-node utilizations are the case where node ``n`` has
    column ``n`` of its own (the identity slot map).
    """

    def __init__(self, partitions: tuple[PartitionSpec, ...]) -> None:
        if not partitions:
            raise PowerModelError("at least one partition required")
        coef = []
        for p in partitions:
            spec = p.node
            coef.append((
                spec.cpus_per_node * spec.cpu_power_idle_w,
                spec.cpus_per_node
                * (spec.cpu_power_max_w - spec.cpu_power_idle_w),
                spec.gpus_per_node * spec.gpu_power_idle_w,
                spec.gpus_per_node
                * (spec.gpu_power_max_w - spec.gpu_power_idle_w),
                spec.nics_per_node * spec.nic_power_w
                + spec.ram_power_w
                + spec.nvme_per_node * spec.nvme_power_w,
            ))
        coef = np.array(coef, dtype=np.float64)
        sizes = [p.total_nodes for p in partitions]
        self._coef = tuple(coef[:, i : i + 1] for i in range(5))
        # Each node's partition (table row), in node concatenation order.
        self._partition_of_node = np.repeat(
            np.arange(len(sizes), dtype=np.int64), sizes
        )
        self.total_nodes = int(sum(sizes))
        self._identity = np.arange(self.total_nodes, dtype=np.int64)
        self._idle_column = np.zeros(1)

    def slot_table(
        self, cpu_rows, gpu_rows, slot_maps
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 3 once per (lane, partition, slot) for K lanes in one call.

        Lane ``k`` has the per-slot utilizations ``cpu_rows[k]`` /
        ``gpu_rows[k]`` and its node ``n`` runs slot ``slot_maps[k][n]``,
        in ``[-1, len(cpu_rows[k]))`` (-1: idle).  The lanes' columns,
        each an idle column followed by the lane's slots, are
        concatenated into one ``(P, cols)`` table.
        Returns the table and the ``(K, N)`` flat indices at which each
        lane's nodes read the raveled table: ``slot + first column of the
        lane's slots + partition * cols``.  Eq. 3 is elementwise, so
        ``table.ravel().take(index)`` has the bits of a per-node
        evaluation of the gathered utilizations.
        """
        n = self.total_nodes
        idle = self._idle_column
        cpu: list[np.ndarray] = []
        gpu: list[np.ndarray] = []
        firsts = []
        cols = 0
        for slot_cpu, slot_gpu, slot_of_node in zip(
            cpu_rows, gpu_rows, slot_maps
        ):
            if slot_of_node.shape != (n,):
                raise PowerModelError(f"slot map must have shape ({n},)")
            if len(slot_cpu) != len(slot_gpu):
                raise PowerModelError("cpu and gpu slot rows must align")
            cpu += (idle, slot_cpu)
            gpu += (idle, slot_gpu)
            firsts.append(cols + 1)
            cols += len(slot_cpu) + 1
        util = np.concatenate(cpu + gpu)
        _check_unit(util)
        table = _eq3(self._coef, util[:cols], util[cols:])
        index = np.empty((len(firsts), n), dtype=np.int64)
        for row, slot_of_node, first in zip(index, slot_maps, firsts):
            np.add(slot_of_node, first, out=row)
        if len(table) > 1:
            index += self._partition_of_node * cols
        return table, index

    def as_slots(
        self, cpu_util: np.ndarray, gpu_util: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node utilization arrays of shape (total_nodes,) as the
        slot form: the same arrays and the identity slot map."""
        cpu_util = np.asarray(cpu_util, dtype=np.float64)
        gpu_util = np.asarray(gpu_util, dtype=np.float64)
        if cpu_util.shape != (self.total_nodes,) or gpu_util.shape != (
            self.total_nodes,
        ):
            raise PowerModelError(
                f"utilization arrays must have shape ({self.total_nodes},)"
            )
        return cpu_util, gpu_util, self._identity

    def node_power_w(
        self, cpu_util: np.ndarray, gpu_util: np.ndarray
    ) -> np.ndarray:
        """Per-node watts for utilization arrays of shape (total_nodes,).

        Idle nodes (utilization 0) still draw their idle power — the paper
        sets utilizations to zero to model idle, not power to zero.
        """
        cpu, gpu, identity = self.as_slots(cpu_util, gpu_util)
        table, index = self.slot_table((cpu,), (gpu,), (identity,))
        return table.ravel().take(index[0])

    def uniform_power_w(self, cpu_util: float, gpu_util: float) -> np.ndarray:
        """Node powers when every node runs at the same utilization."""
        return self.node_power_w(
            np.full(self.total_nodes, float(cpu_util)),
            np.full(self.total_nodes, float(gpu_util)),
        )

    @property
    def idle_node_power_w(self) -> np.ndarray:
        """Per-node idle draw (Eq. 3 with zero utilizations)."""
        return self.uniform_power_w(0.0, 0.0)

    @property
    def max_node_power_w(self) -> np.ndarray:
        """Per-node peak draw (Eq. 3 with unit utilizations)."""
        return self.uniform_power_w(1.0, 1.0)


__all__ = ["NodePowerModel"]
