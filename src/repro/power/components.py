"""Per-node dynamic power (paper Eq. 3).

``P_node = P_CPU + 4 P_GPU + 4 P_NIC + P_RAM + 2 P_NVMe`` with CPU and GPU
power linearly interpolated between their [idle, max] values by the
time-indexed utilization — vectorized over every node in the system so
one call per trace quantum covers all 9472 Frontier nodes.
"""

from __future__ import annotations

import numpy as np

from repro.config.schema import NodeSpec, PartitionSpec
from repro.exceptions import PowerModelError


def _check_unit(*utils) -> None:
    """Raise unless every utilization lies in [0, 1] (NaN included)."""
    for util in utils:
        if not (util.min(initial=0.0) >= 0.0 and util.max(initial=0.0) <= 1.0):
            raise PowerModelError("utilization values must lie in [0, 1]")


def _eq3(coef, cpu_util, gpu_util):
    """Paper Eq. 3 over broadcastable coefficient and utilization arrays.

    ``coef`` is (cpu idle, cpu span, gpu idle, gpu span, static): per-node
    arrays for node utilizations, per-partition columns for a slot table.
    The expression is elementwise, so both forms give the same bits.
    """
    _check_unit(cpu_util, gpu_util)
    cpu_idle, cpu_span, gpu_idle, gpu_span, static = coef
    return (
        cpu_idle + cpu_span * cpu_util + gpu_idle + gpu_span * gpu_util + static
    )


class NodePowerModel:
    """Vectorized Eq. 3 evaluator over a (possibly multi-partition) system.

    The Eq. 3 coefficients are constant within a partition, so they are
    kept once per partition (columns of a slot table) and once per node;
    each evaluation is a fused broadcast expression, no Python-level loop
    over nodes.
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
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        #: Each partition's node range, in node concatenation order.
        self._ranges = list(zip(bounds[:-1], bounds[1:]))
        self._slot_coef = tuple(coef[:, i : i + 1] for i in range(5))
        part_of_node = np.repeat(np.arange(len(sizes)), sizes)
        self._node_coef = tuple(coef[part_of_node, i] for i in range(5))
        self.total_nodes = int(bounds[-1])

    def node_power_w(
        self, cpu_util: np.ndarray, gpu_util: np.ndarray
    ) -> np.ndarray:
        """Per-node watts for utilization arrays of shape (total_nodes,).

        Idle nodes (utilization 0) still draw their idle power — the paper
        sets utilizations to zero to model idle, not power to zero.
        """
        cpu_util = np.asarray(cpu_util, dtype=np.float64)
        gpu_util = np.asarray(gpu_util, dtype=np.float64)
        if cpu_util.shape != (self.total_nodes,) or gpu_util.shape != (
            self.total_nodes,
        ):
            raise PowerModelError(
                f"utilization arrays must have shape ({self.total_nodes},)"
            )
        return _eq3(self._node_coef, cpu_util, gpu_util)

    def slot_power_w(
        self,
        slot_cpu: np.ndarray,
        slot_gpu: np.ndarray,
        slot_of_node: np.ndarray,
    ) -> np.ndarray:
        """Per-node watts from per-slot utilizations and a slot map.

        Node ``n`` runs at slot ``slot_of_node[n]`` (-1: idle).  Eq. 3 is
        evaluated once per (partition, slot) on a small table whose last
        column is the idle slot, so the slot map itself is the gather
        index: one ``take`` per partition fills the nodes, with the bits
        :meth:`node_power_w` gives for the gathered node utilizations.
        """
        if slot_of_node.shape != (self.total_nodes,):
            raise PowerModelError(
                f"slot map must have shape ({self.total_nodes},)"
            )
        table = _eq3(
            self._slot_coef, np.append(slot_cpu, 0.0), np.append(slot_gpu, 0.0)
        )
        parts = [
            row.take(slot_of_node[a:b])
            for row, (a, b) in zip(table, self._ranges)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def uniform_power_w(self, cpu_util: float, gpu_util: float) -> np.ndarray:
        """Node powers when every node runs at the same utilization."""
        return self.node_power_w(
            np.full(self.total_nodes, float(cpu_util)),
            np.full(self.total_nodes, float(gpu_util)),
        )

    @property
    def idle_node_power_w(self) -> np.ndarray:
        """Per-node idle draw (Eq. 3 with zero utilizations)."""
        return _eq3(self._node_coef, np.float64(0.0), np.float64(0.0))

    @property
    def max_node_power_w(self) -> np.ndarray:
        """Per-node peak draw (Eq. 3 with unit utilizations)."""
        return _eq3(self._node_coef, np.float64(1.0), np.float64(1.0))


__all__ = ["NodePowerModel"]
