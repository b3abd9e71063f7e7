"""Power-conversion chain: active rectifiers and SIVOC DC-DC converters.

Paper Eqs. 1-2: the chain efficiency is ``eta_system = eta_R * eta_S``
(nameplate ~0.96 x 0.98 ~= 0.94) and the loss is the difference between
rectifier AC input and SIVOC 48 V output.  In reality the efficiency
varies with load — the rectifiers peak at 96.3 % near 7.5 kW and droop
1-2 % toward idle (section IV-3) — so both stages carry load-dependent
efficiency curves.  The anchor points shipped in
:class:`~repro.config.schema.RectifierSpec` / ``SivocSpec`` are calibrated
so the whole-system verification targets of Table III hold.

Topology (paper Fig. 3): four rectifiers per chassis share a common 380 V
DC bus feeding eight blades; each blade carries two SIVOCs, one per node,
stepping 380 V down to 48 V.
"""

from __future__ import annotations

import numpy as np

from repro.config.schema import RectifierSpec, SivocSpec
from repro.exceptions import PowerModelError


class EfficiencyCurve:
    """Monotone piecewise-linear efficiency vs. output-load curve.

    Evaluation is ``np.interp`` over precomputed anchor arrays, so it
    vectorizes over any number of converters at once.  Loads beyond the
    last anchor clamp to the end efficiencies.
    """

    def __init__(self, load_points_w, efficiency_points) -> None:
        self._loads = np.asarray(load_points_w, dtype=np.float64)
        self._effs = np.asarray(efficiency_points, dtype=np.float64)
        if self._loads.ndim != 1 or self._loads.shape != self._effs.shape:
            raise PowerModelError("malformed efficiency curve arrays")
        if self._loads.size < 2:
            raise PowerModelError("efficiency curve needs >= 2 anchors")
        if np.any(np.diff(self._loads) <= 0):
            raise PowerModelError("curve loads must be strictly increasing")
        if np.any(self._effs <= 0.0) or np.any(self._effs > 1.0):
            raise PowerModelError("curve efficiencies must be in (0, 1]")

    def efficiency(self, load_w: np.ndarray | float) -> np.ndarray | float:
        """Efficiency eta(P_out) at the given output load(s)."""
        return np.interp(load_w, self._loads, self._effs)

    def input_power(self, output_w: np.ndarray | float) -> np.ndarray | float:
        """Input power required to deliver ``output_w``: P_in = P_out/eta."""
        out = np.asarray(output_w, dtype=np.float64)
        if (out < 0).any():
            raise PowerModelError("output power must be non-negative")
        return out / self.efficiency(out)

    def loss(self, output_w: np.ndarray | float) -> np.ndarray | float:
        """Conversion loss at the given output load: P_in - P_out."""
        return self.input_power(output_w) - np.asarray(output_w, dtype=np.float64)

    @property
    def peak_efficiency(self) -> float:
        return float(self._effs.max())

    @property
    def peak_efficiency_load_w(self) -> float:
        return float(self._loads[int(np.argmax(self._effs))])


class SivocBank:
    """All SIVOCs in the system: one per node, 380 V -> 48 V.

    ``input_power(node_power_w)`` returns the 380 V bus draw per node.
    """

    def __init__(self, spec: SivocSpec) -> None:
        self.spec = spec
        self.curve = EfficiencyCurve(spec.load_points_w, spec.efficiency_points)

    def input_power(self, node_power_w: np.ndarray) -> np.ndarray:
        return np.asarray(self.curve.input_power(node_power_w))

    def loss(self, node_power_w: np.ndarray) -> np.ndarray:
        return np.asarray(self.curve.loss(node_power_w))


class RectifierBank:
    """Per-chassis rectifier groups: AC three-phase -> 380 V DC bus.

    Baseline operation shares each chassis load equally across all
    ``rectifiers_per_chassis`` units (the paper's stock configuration —
    the common DC bus rides through single-rectifier failures).
    """

    def __init__(self, spec: RectifierSpec, rectifiers_per_chassis: int) -> None:
        if rectifiers_per_chassis < 1:
            raise PowerModelError("rectifiers_per_chassis must be >= 1")
        self.spec = spec
        self.rectifiers_per_chassis = int(rectifiers_per_chassis)
        self.curve = EfficiencyCurve(spec.load_points_w, spec.efficiency_points)

    def input_power(self, chassis_bus_w: np.ndarray) -> np.ndarray:
        """AC input per chassis given its 380 V bus demand (equal sharing)."""
        chassis_bus_w = np.asarray(chassis_bus_w, dtype=np.float64)
        per_rect = chassis_bus_w / self.rectifiers_per_chassis
        eta = self.curve.efficiency(per_rect)
        return chassis_bus_w / eta

    def loss(self, chassis_bus_w: np.ndarray) -> np.ndarray:
        return self.input_power(chassis_bus_w) - np.asarray(
            chassis_bus_w, dtype=np.float64
        )


class ChainBase:
    """What every conversion chain shares: the SIVOC bank, the chassis
    scatter-add and the loss sums.  A chain adds only its rectifier
    stage, :meth:`rectify`, from per-chassis 380 V bus demand to
    per-chassis input power.

    :meth:`convert_rows` takes ``(K, N)`` node powers stacked over their
    SIVOC inputs, one row per lane, and gives each row the bits
    :meth:`convert` gives it alone: the SIVOC curve and the divisions are
    elementwise (so the caller may run the curve on a slot table and
    gather), the chassis scatter is a lane-offset bincount, and each loss
    sums contiguous rows.
    """

    name = ""

    def __init__(
        self, sivoc: SivocSpec, chassis_of_node: np.ndarray, num_chassis: int
    ) -> None:
        self.sivocs = SivocBank(sivoc)
        self._chassis_of_node = np.asarray(chassis_of_node, dtype=np.int64)
        self._num_chassis = int(num_chassis)

    def rectify(self, chassis_bus_w: np.ndarray) -> np.ndarray:
        """Per-chassis input power for a ``(C,)`` or ``(K, C)`` bus demand."""
        raise NotImplementedError

    def chassis_bus(
        self, sivoc_in: np.ndarray, chassis_flat: np.ndarray
    ) -> np.ndarray:
        """Per-chassis 380 V bus demand, ``(K, C)``, from ``(K, N)`` SIVOC
        inputs; ``chassis_flat`` starts with the K rows
        ``chassis_of_node + k * num_chassis``, flattened."""
        K, N = sivoc_in.shape
        C = self._num_chassis
        return np.bincount(
            chassis_flat[: K * N], weights=sivoc_in.ravel(), minlength=K * C
        ).reshape(K, C)

    def convert_rows(
        self, nodes: np.ndarray, chassis_flat: np.ndarray
    ) -> tuple[np.ndarray, list[float], list[float], list[float]]:
        """:meth:`convert` over K lanes.  ``nodes`` is ``(2, K, N)``:
        the node powers over their SIVOC inputs (``chassis_flat`` as in
        :meth:`chassis_bus`).  Returns the ``(K, C)`` chassis input power
        and, per lane, the SIVOC loss, the rectifier loss and the 48 V
        output (the lane's node-power sum)."""
        chassis_bus = self.chassis_bus(nodes[1], chassis_flat)
        chassis_ac = self.rectify(chassis_bus)
        # Sums along contiguous rows: each row's own pairwise sum.
        output_w, input_w = nodes.sum(axis=2)
        sivoc_loss = input_w - output_w
        rect_loss = chassis_ac.sum(axis=1) - chassis_bus.sum(axis=1)
        return (
            chassis_ac, sivoc_loss.tolist(), rect_loss.tolist(),
            output_w.tolist(),
        )

    def _node_row(self, node_power_w) -> np.ndarray:
        """One node-power row over its SIVOC inputs, ``(2, 1, N)``."""
        node_w = np.asarray(node_power_w, dtype=np.float64)[None, :]
        return np.stack((node_w, self.sivocs.input_power(node_w)))

    def convert(
        self, node_power_w: np.ndarray
    ) -> tuple[np.ndarray, float, float]:
        """Returns (chassis_ac_w, sivoc_loss_w, rectifier_loss_w).

        ``chassis_ac_w`` has one entry per chassis; losses are system
        totals in watts.
        """
        ac, sivoc_loss, rect_loss, _ = self.convert_rows(
            self._node_row(node_power_w), self._chassis_of_node
        )
        return ac[0], sivoc_loss[0], rect_loss[0]


class ConversionChain(ChainBase):
    """The baseline two-stage chain (Eqs. 1-2) over the whole system.

    Each chassis load is shared equally across its healthy rectifiers.
    The common DC bus rides through rectifier failures (paper III-B1:
    "in case of rectifier failure, blades are continuously powered");
    :meth:`fail_rectifiers` removes units from a chassis and the
    survivors pick up the load at their (shifted) efficiency point.
    """

    name = "baseline"

    def __init__(
        self,
        rectifier: RectifierSpec,
        sivoc: SivocSpec,
        rectifiers_per_chassis: int,
        chassis_of_node: np.ndarray,
        num_chassis: int,
    ) -> None:
        super().__init__(sivoc, chassis_of_node, num_chassis)
        self.rectifiers = RectifierBank(rectifier, rectifiers_per_chassis)
        self._healthy = np.full(
            num_chassis, rectifiers_per_chassis, dtype=np.int64
        )

    def fail_rectifiers(self, chassis_index: int, count: int = 1) -> None:
        """Take ``count`` rectifiers in one chassis out of service."""
        if not 0 <= chassis_index < self._num_chassis:
            raise PowerModelError("chassis_index out of range")
        healthy = int(self._healthy[chassis_index]) - count
        if healthy < 1:
            raise PowerModelError(
                "at least one rectifier must remain per chassis"
            )
        self._healthy[chassis_index] = healthy

    def repair_all(self) -> None:
        """Return every rectifier to service."""
        self._healthy[:] = self.rectifiers.rectifiers_per_chassis

    def rectify(self, chassis_bus_w: np.ndarray) -> np.ndarray:
        eta = self.rectifiers.curve.efficiency(chassis_bus_w / self._healthy)
        return chassis_bus_w / eta

    def rectifiers_active(self, node_power_w: np.ndarray) -> np.ndarray:
        """Rectifiers energized per chassis (all healthy units)."""
        return self._healthy.copy()


__all__ = [
    "EfficiencyCurve", "SivocBank", "RectifierBank", "ChainBase",
    "ConversionChain",
]
