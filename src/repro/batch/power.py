"""Batched power pipeline: B lanes of nodes -> chassis -> racks -> CDUs.

:class:`BatchedPowerModel` evaluates the whole-system power pipeline
(:mod:`repro.power.system`) for a *subset* of lanes per call — the
batched engine's per-lane change detection decides which lanes need a
fresh evaluation each quantum, and only those pay for the pipeline.

Bit-identity per lane comes from the same properties the batched
cooling kernel relies on:

- Each lane's node powers come from the serial Eq. 3 slot table
  (:meth:`~repro.power.components.NodePowerModel.slot_power_w`), staged
  as one row of a ``(K, N)`` array; the SIVOC/rectifier curves
  (``np.interp``) and every division are elementwise, so each row
  reproduces the serial ``(N,)`` bits.
- The scatter-adds become **lane-offset bincounts**: each lane's bins
  live in a disjoint ``[k * C, (k + 1) * C)`` range of one flat
  bincount, and ``np.bincount`` accumulates weights in input order, so
  each lane's per-bin accumulation order (and hence its bits) matches
  the serial per-lane bincount exactly.
- The per-lane scalar reductions (losses, system power) sum contiguous
  single-lane rows — the same pairwise tree as the serial sums.

Lanes are grouped by spec identity: lanes sharing a
:class:`~repro.config.schema.SystemSpec` object share one topology, one
coefficient set, and one batch scratch block (the overwhelmingly common
case — a campaign sweeps one system).  Distinct specs get distinct
groups and are evaluated group by group.
"""

from __future__ import annotations

import numpy as np

from repro.power.system import PowerResult, SystemPowerModel


class _PowerGroup:
    """Batched pipeline for up to ``capacity`` lanes of one spec."""

    def __init__(self, spec, capacity: int) -> None:
        self.spec = spec
        #: Serial reference model: single source of truth for topology,
        #: coefficients, curves, and the warmup idle evaluation.
        self.model = SystemPowerModel(spec)
        t = self.model.topology
        lane = np.arange(capacity, dtype=np.int64)[:, None]
        # Lane-offset index maps: lane k scatters into bin range
        # [k * count, (k + 1) * count) of one flat bincount.
        self._chassis_flat = t.chassis_of_node[None, :] + lane * t.num_chassis
        self._rack_flat = t.rack_of_chassis[None, :] + lane * t.num_racks
        self._cdu_flat = t.cdu_of_rack[None, :] + lane * t.num_cdus
        self.node_w = np.empty((capacity, t.num_nodes))
        self._idle: PowerResult | None = None

    def idle_power(self) -> PowerResult:
        """The all-idle evaluation that seeds cooling warmup (serial)."""
        if self._idle is None:
            n = self.model.nodes.total_nodes
            self._idle = self.model.evaluate(np.zeros(n), np.zeros(n))
        return self._idle

    def evaluate_batch(self, K: int) -> list[PowerResult]:
        """Evaluate rows ``[0:K]`` of the staged node-power batch."""
        model = self.model
        t = model.topology
        chain = model.chain
        node_w = self.node_w[:K]
        # Conversion chain (ConversionChain.convert, lane-batched).
        sivoc_curve = chain.sivocs.curve
        sivoc_in = node_w / np.interp(
            node_w, sivoc_curve._loads, sivoc_curve._effs
        )
        chassis_bus = np.bincount(
            self._chassis_flat[:K].ravel(),
            weights=sivoc_in.ravel(),
            minlength=K * t.num_chassis,
        ).reshape(K, t.num_chassis)
        per_rect = chassis_bus / chain._healthy
        rect_curve = chain.rectifiers.curve
        eta = np.interp(per_rect, rect_curve._loads, rect_curve._effs)
        chassis_ac = chassis_bus / eta
        # Aggregation (SystemPowerModel.evaluate, lane-batched).
        rack_w = np.bincount(
            self._rack_flat[:K].ravel(),
            weights=chassis_ac.ravel(),
            minlength=K * t.num_racks,
        ).reshape(K, t.num_racks)
        rack_w = rack_w + t.switch_power_per_rack_w
        cdu_w = np.bincount(
            self._cdu_flat[:K].ravel(),
            weights=rack_w.ravel(),
            minlength=K * t.num_cdus,
        ).reshape(K, t.num_cdus)
        cdu_heat = cdu_w * self.spec.power.cooling_efficiency
        # Per-lane scalar reductions over contiguous rows + row copies
        # (results outlive the next batch, which reuses the scratch).
        results = []
        pump_total = model._cdu_pump_total_w
        switch_total = model._total_switch_w
        for i in range(K):
            results.append(
                PowerResult(
                    node_power_w=node_w[i].copy(),
                    rack_power_w=rack_w[i].copy(),
                    cdu_power_w=cdu_w[i].copy(),
                    cdu_heat_w=cdu_heat[i].copy(),
                    sivoc_loss_w=float(
                        np.sum(sivoc_in[i]) - np.sum(node_w[i])
                    ),
                    rectifier_loss_w=float(
                        np.sum(chassis_ac[i]) - np.sum(chassis_bus[i])
                    ),
                    switch_power_w=switch_total,
                    cdu_pump_power_w=pump_total,
                    system_power_w=float(np.sum(rack_w[i])) + pump_total,
                )
            )
        return results


class BatchedPowerModel:
    """Subset-batched power evaluation across B heterogeneous lanes.

    ``specs`` is the per-lane :class:`~repro.config.schema.SystemSpec`
    sequence; lanes sharing a spec *object* share one batch group.
    """

    def __init__(self, specs) -> None:
        specs = list(specs)
        self.lanes = len(specs)
        capacity: dict[int, int] = {}
        for spec in specs:
            capacity[id(spec)] = capacity.get(id(spec), 0) + 1
        groups: dict[int, _PowerGroup] = {}
        self.lane_group: list[_PowerGroup] = []
        for spec in specs:
            key = id(spec)
            if key not in groups:
                groups[key] = _PowerGroup(spec, capacity[key])
            self.lane_group.append(groups[key])

    def idle_power(self, lane: int) -> PowerResult:
        """The warmup idle evaluation for ``lane`` (cached per group)."""
        return self.lane_group[lane].idle_power()

    def num_cdus(self, lane: int) -> int:
        return self.lane_group[lane].model.topology.num_cdus

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
            nodes = group.model.nodes
            for row, pos in enumerate(positions):
                group.node_w[row] = nodes.slot_power_w(
                    cpu_rows[pos], gpu_rows[pos], slot_maps[pos]
                )
            results = group.evaluate_batch(len(positions))
            for row, pos in enumerate(positions):
                out[pos] = results[row]
        return out


__all__ = ["BatchedPowerModel"]
