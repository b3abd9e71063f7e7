"""The "smart load-sharing rectifier" what-if (paper section IV-3).

Instead of sharing each chassis load equally across all four rectifiers,
rectifiers are dynamically staged on as needed so the energized units
operate in their peak-efficiency region.  For each chassis the chain
picks the rectifier count ``n`` in [1, 4] maximizing efficiency at load
``L/n``, subject to ``L/n`` not exceeding the rated output and an
optional headroom reserve for load surges.

The paper reports a modest 0.1 % efficiency gain — the stock curve is
already near-optimal at typical loads, so staging mainly helps during
idle and light-load periods.
"""

from __future__ import annotations

import numpy as np

from repro.config.schema import RectifierSpec, SivocSpec
from repro.exceptions import PowerModelError
from repro.power.conversion import ChainBase, EfficiencyCurve


class SmartRectifierChain(ChainBase):
    """Conversion chain with per-chassis rectifier staging.

    Drop-in replacement for
    :class:`~repro.power.conversion.ConversionChain` (same ``convert``
    contract) that can be passed to
    :class:`~repro.power.system.SystemPowerModel`.
    """

    name = "smart-rectifier"

    def __init__(
        self,
        rectifier: RectifierSpec,
        sivoc: SivocSpec,
        rectifiers_per_chassis: int,
        chassis_of_node: np.ndarray,
        num_chassis: int,
        *,
        headroom_fraction: float = 0.10,
    ) -> None:
        if rectifiers_per_chassis < 1:
            raise PowerModelError("rectifiers_per_chassis must be >= 1")
        if not 0.0 <= headroom_fraction < 1.0:
            raise PowerModelError("headroom_fraction must be in [0, 1)")
        super().__init__(sivoc, chassis_of_node, num_chassis)
        self.curve = EfficiencyCurve(
            rectifier.load_points_w, rectifier.efficiency_points
        )
        self.rectifiers_per_chassis = int(rectifiers_per_chassis)
        self.max_load_w = rectifier.rated_output_w * (1.0 - headroom_fraction)
        #: Rectifier counts evaluated per chassis, shape (R,).
        self._counts = np.arange(1, self.rectifiers_per_chassis + 1)

    def _stage(self, chassis_bus_w: np.ndarray) -> np.ndarray:
        """Best rectifier count per chassis, vectorized over all chassis.

        Evaluates the efficiency at ``L/n`` for every candidate ``n``
        (shape: chassis x candidates, behind any leading row axis),
        masks out overloaded candidates, and takes the argmax.  At zero
        load a single rectifier stays energized to keep the DC bus alive.
        """
        loads = chassis_bus_w[..., None] / self._counts
        eta = self.curve.efficiency(loads)
        feasible = loads <= self.max_load_w
        # If no candidate is feasible (overload), fall back to all-on.
        eta = np.where(feasible, eta, -1.0)
        best = np.argmax(eta, axis=-1)
        best[~feasible.any(axis=-1)] = self.rectifiers_per_chassis - 1
        return self._counts[best]

    def rectify(self, chassis_bus_w: np.ndarray) -> np.ndarray:
        eta = self.curve.efficiency(chassis_bus_w / self._stage(chassis_bus_w))
        return chassis_bus_w / eta

    def rectifiers_active(self, node_power_w: np.ndarray) -> np.ndarray:
        """Rectifiers energized per chassis under staging."""
        _, sivoc_in = self._node_row(node_power_w)
        return self._stage(
            self.chassis_bus(sivoc_in, self._chassis_of_node)[0]
        )


__all__ = ["SmartRectifierChain"]
