"""Batched power pipeline: B lanes of nodes -> chassis -> racks -> CDUs.

:class:`BatchedPowerModel` evaluates the whole-system power pipeline
(:mod:`repro.power.system`) for a *subset* of lanes per call — the
batched engine's per-lane change detection decides which lanes need a
fresh evaluation each quantum, and only those pay for the pipeline.

Each call stages the changed lanes' node powers (the serial Eq. 3 slot
table, :meth:`~repro.power.components.NodePowerModel.slot_power_w`) as
rows of a ``(K, N)`` block for :meth:`SystemPowerModel.evaluate_rows
<repro.power.system.SystemPowerModel.evaluate_rows>`, the one power
pipeline, whose K = 1 case is the serial ``evaluate``; so each lane
gets its serial bits.  Lanes sharing a spec *object* and a conversion
chain (``None``: the baseline) share one group — the common case, a
campaign over one system; a what-if's modified lane brings its own
chain and so its own group.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.power.system import PowerResult, SystemPowerModel


class _PowerGroup:
    """One power model and its row staging for up to ``capacity`` lanes."""

    def __init__(self, spec, chain, capacity: int) -> None:
        self.model = SystemPowerModel(spec, chain=chain)
        self.node_w = np.empty((capacity, self.model.topology.num_nodes))
        self._idle: PowerResult | None = None

    def idle_power(self) -> PowerResult:
        """The all-idle evaluation that seeds cooling warmup (serial)."""
        if self._idle is None:
            n = self.model.nodes.total_nodes
            self._idle = self.model.evaluate(np.zeros(n), np.zeros(n))
        return self._idle


class BatchedPowerModel:
    """Subset-batched power evaluation across B heterogeneous lanes.

    ``specs`` is the per-lane :class:`~repro.config.schema.SystemSpec`
    sequence and ``chains`` the optional per-lane conversion chains
    (``None`` entries: the baseline chain); lanes sharing a spec *object*
    and a chain share one group.
    """

    def __init__(self, specs, chains=None) -> None:
        specs = list(specs)
        chains = [None] * len(specs) if chains is None else list(chains)
        keys = [(id(spec), id(chain)) for spec, chain in zip(specs, chains)]
        capacity = Counter(keys)
        groups: dict[tuple[int, int], _PowerGroup] = {}
        self.lane_group: list[_PowerGroup] = []
        for key, spec, chain in zip(keys, specs, chains):
            if key not in groups:
                groups[key] = _PowerGroup(spec, chain, capacity[key])
            self.lane_group.append(groups[key])

    def idle_power(self, lane: int) -> PowerResult:
        """The warmup idle evaluation for ``lane`` (cached per group)."""
        return self.lane_group[lane].idle_power()

    def evaluate(
        self, lanes, cpu_rows, gpu_rows, slot_maps
    ) -> list[PowerResult]:
        """Evaluate the pipeline for the given (changed) lanes.

        ``lanes`` are lane indices; ``cpu_rows`` / ``gpu_rows`` the
        matching per-slot utilization arrays and ``slot_maps`` each
        lane's node-to-slot map (-1: idle).  Returns one
        :class:`PowerResult` per requested lane, in order.
        """
        out: list[PowerResult | None] = [None] * len(lanes)
        by_group: dict[int, tuple[_PowerGroup, list[int]]] = {}
        for pos, lane in enumerate(lanes):
            group = self.lane_group[lane]
            by_group.setdefault(id(group), (group, []))[1].append(pos)
        for group, positions in by_group.values():
            model = group.model
            rows = [
                model.nodes.slot_power_w(
                    cpu_rows[pos], gpu_rows[pos], slot_maps[pos]
                )
                for pos in positions
            ]
            staged = group.node_w[: len(rows)]
            for row, node_w in enumerate(rows):
                staged[row] = node_w
            results = model.evaluate_rows(staged)
            for pos, node_w, result in zip(positions, rows, results):
                # The staging block is reused by the next call; each
                # result keeps its lane's own node-power array instead.
                result.node_power_w = node_w
                out[pos] = result
        return out


__all__ = ["BatchedPowerModel"]
