"""The 380 V direct-DC distribution what-if (paper section IV-3).

Inspired by the LBNL DC-power study and the Hikari HVDC deployment, this
chain supplies the 380 V bus directly from facility DC distribution,
eliminating per-chassis AC rectification entirely.  Only the SIVOC stage
(and an optional facility DC-distribution efficiency) remains, lifting
the average chain efficiency from ~93.3 % to ~97.3 % in the paper's
183-day counterfactual replay.
"""

from __future__ import annotations

import numpy as np

from repro.config.schema import SivocSpec
from repro.exceptions import PowerModelError
from repro.power.conversion import ChainBase


class DirectDcChain(ChainBase):
    """Conversion chain with no rectifier stage (380 V DC to the bus).

    Drop-in replacement for
    :class:`~repro.power.conversion.ConversionChain`: rectifier loss is
    reported as the (usually tiny) facility DC-distribution loss.
    """

    name = "direct-dc"

    def __init__(
        self,
        sivoc: SivocSpec,
        chassis_of_node: np.ndarray,
        num_chassis: int,
        *,
        distribution_efficiency: float = 1.0,
    ) -> None:
        if not 0.0 < distribution_efficiency <= 1.0:
            raise PowerModelError("distribution_efficiency must be in (0, 1]")
        super().__init__(sivoc, chassis_of_node, num_chassis)
        self.distribution_efficiency = float(distribution_efficiency)

    def rectify(self, chassis_bus_w: np.ndarray) -> np.ndarray:
        return chassis_bus_w / self.distribution_efficiency

    def rectifiers_active(self, node_power_w: np.ndarray) -> np.ndarray:
        """No rectifiers exist in the DC design."""
        return np.zeros(self._num_chassis, dtype=np.int64)


__all__ = ["DirectDcChain"]
