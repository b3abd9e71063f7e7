"""Batched power pipeline: B lanes of nodes -> chassis -> racks -> CDUs.

:class:`BatchedPowerModel` evaluates the whole-system power pipeline
(:mod:`repro.power.system`) for a set of lanes per call — the batched
engine passes its live lanes every quantum, and any subset evaluates
to the same per-lane bits.  Its lanes are the batch's electrical runs:
engine lanes that share a run (weather variants of one workload) share
its evaluations.

A batch is one system, so lanes are grouped by conversion chain only:
lanes on the baseline chain (``None``) share one group — the common
case, a campaign — and a what-if's modified lane brings its own chain
and so its own group.  Each group is one
:meth:`SystemPowerModel.evaluate_lanes
<repro.power.system.SystemPowerModel.evaluate_lanes>` call, whose K = 1
case is the serial ``evaluate``: Eq. 3 and the SIVOC curve run once per
(lane, partition, slot) on the lanes' concatenated slot table, and one
flat ``take`` with lane offsets gathers them to the nodes, so each lane
gets its serial bits.
"""

from __future__ import annotations

from repro.power.system import PowerResult, SystemPowerModel


class BatchedPowerModel:
    """Subset-batched power evaluation across B lanes of one system.

    ``spec`` is the batch's :class:`~repro.config.schema.SystemSpec` and
    ``chains`` the per-lane conversion chains (``None`` entries: the
    baseline chain); lanes sharing a chain share one group.  The
    batched engine gives it one lane per electrical run
    (:class:`~repro.core.engine.ElectricalRun`).
    """

    def __init__(self, spec, chains) -> None:
        models: dict[int, SystemPowerModel] = {}
        #: Each lane's power model (one per distinct chain).
        self.lane_group: list[SystemPowerModel] = []
        for chain in chains:
            if id(chain) not in models:
                models[id(chain)] = SystemPowerModel(spec, chain=chain)
            self.lane_group.append(models[id(chain)])

    def idle(self, lane: int) -> PowerResult:
        """Lane ``lane``'s warmup idle evaluation (memoised per model)."""
        return self.lane_group[lane].idle()

    def evaluate(
        self, lanes, cpu_rows, gpu_rows, slot_maps
    ) -> list[PowerResult]:
        """Evaluate the pipeline for the given lanes.

        ``lanes`` are lane indices; ``cpu_rows`` / ``gpu_rows`` the
        matching per-slot utilization arrays and ``slot_maps`` each
        lane's node-to-slot map (-1: idle).  Returns one
        :class:`PowerResult` per requested lane, in order.
        """
        by_group: dict[int, tuple[SystemPowerModel, list[int]]] = {}
        for pos, lane in enumerate(lanes):
            model = self.lane_group[lane]
            by_group.setdefault(id(model), (model, []))[1].append(pos)
        out: list[PowerResult | None] = [None] * len(lanes)
        for model, positions in by_group.values():
            results = model.evaluate_lanes(
                [cpu_rows[pos] for pos in positions],
                [gpu_rows[pos] for pos in positions],
                [slot_maps[pos] for pos in positions],
            )
            for pos, result in zip(positions, results):
                out[pos] = result
        return out


__all__ = ["BatchedPowerModel"]
