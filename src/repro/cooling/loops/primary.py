"""The primary (high-temperature water) loop: HTWP1-4 and EHX1-5.

HTW circulates from the intermediate heat exchangers (EHX1-5) through
the four high-temperature water pumps to the 25 HEX-1600s and back
(paper Fig. 5, ~5000-6000 gpm).  Controls per III-C5:

- a PID regulates the HTWPs to hold the supply header differential
  pressure against the valve-driven flow demand of the CDUs,
- pumps stage up/down on the relative speed of the running pumps,
- EHXs stage with the number of cooling-tower cells in operation.

State: supply header temperature (post-EHX) and return header
temperature (mixed CDU primary returns).
"""

from __future__ import annotations

import numpy as np

from repro.config.schema import CoolingSpec
from repro.cooling.components.heat_exchanger import CounterflowHX
from repro.cooling.components.pipe import FlowResistance
from repro.cooling.components.pump import PumpGroup
from repro.cooling.components.volume import ThermalVolume
from repro.cooling.control.staging import StagingController
from repro.cooling.properties import WATER
from repro.exceptions import CoolingModelError

#: Static pressure of the HTW supply and return headers, Pa.
HEADER_STATIC_PA = 200.0e3


class PrimaryLoop:
    """HTW loop model with pump staging and the EHX bank."""

    def __init__(self, cooling: CoolingSpec, *, t0_c: float = 29.0) -> None:
        self.spec = cooling
        loop = cooling.primary_loop
        self.pumps = PumpGroup(cooling.htw_pumps, n_running=2)
        self.resistance = FlowResistance.from_design_point(
            loop.design_dp_pa, loop.design_flow_m3s
        )
        self.ehx = CounterflowHX(
            cooling.intermediate_hx.ua_w_per_k, WATER, WATER
        )
        self.num_ehx_installed = cooling.intermediate_hx.count
        self.n_ehx = 2
        half_volume = loop.volume_m3 / 2.0
        self.supply = ThermalVolume(half_volume, WATER, t0_c, width=1)
        self.return_ = ThermalVolume(half_volume, WATER, t0_c + 8.0, width=1)
        self.pump_staging = StagingController(
            n_min=1,
            n_max=cooling.htw_pumps.count,
            hi=0.92,
            lo=0.45,
            up_delay_s=60.0,
            down_delay_s=600.0,
            n0=2,
        )
        self.supply_setpoint_c = loop.supply_setpoint_c
        self.pump_speed = 0.7
        self.total_flow = loop.design_flow_m3s * 0.7
        self.ehx_heat_w = 0.0

    # -- hydraulics / staging -------------------------------------------------------

    def update_flows(self, demand_flow_m3s: float, dt: float) -> None:
        """Track the CDU valves' total primary demand.

        The HTWP VFDs hold the header dp, so the loop delivers whatever
        the valves ask for (up to pump capability); the speed needed is
        recovered from the pump curve and drives staging.
        """
        if demand_flow_m3s < 0:
            raise CoolingModelError("flow demand must be non-negative")
        self.pumps.n_running = self.pump_staging.count
        speed = self.pumps.speed_for_flow(self.resistance, demand_flow_m3s)
        self.pump_speed = max(speed, self.pumps.spec.min_speed_fraction)
        # Deliverable flow at the commanded speed (saturates at capacity).
        q_cap, _ = self.pumps.operating_point(self.resistance, 1.0)
        self.total_flow = min(demand_flow_m3s, q_cap)
        self.pump_staging.update(self.pump_speed, dt)

    def stage_ehx(self, n_ct_cells: int, cells_per_tower: int) -> int:
        """EHXs staged with the number of towers in operation (III-C5)."""
        if n_ct_cells < 0:
            raise CoolingModelError("cell count must be >= 0")
        towers_running = int(np.ceil(n_ct_cells / max(cells_per_tower, 1)))
        self.n_ehx = int(np.clip(towers_running, 1, self.num_ehx_installed))
        return self.n_ehx

    # -- thermal -----------------------------------------------------------------------

    def advance_thermal(
        self,
        cdu_return_mix_c: float,
        ctw_supply_c: float,
        ctw_flow_m3s: float,
        dt: float,
    ) -> float:
        """One thermal substep; returns the CTW-side outlet temperature.

        ``cdu_return_mix_c`` is the flow-weighted mix of the 25 CDU
        primary returns entering the return header; the EHX bank rejects
        the loop heat into the tower loop.
        """
        self.return_.advance(cdu_return_mix_c, self.total_flow, 0.0, dt)
        ua = self.n_ehx * self.ehx.ua
        q, t_hot_out, t_cold_out = self.ehx.transfer(
            self.return_.temp_c,
            self.total_flow,
            ctw_supply_c,
            ctw_flow_m3s,
            ua=ua,
        )
        self.ehx_heat_w = float(q[0]) if np.ndim(q) else float(q)
        self.supply.advance(t_hot_out, self.total_flow, 0.0, dt)
        t_cold = np.asarray(t_cold_out)
        return float(t_cold[0]) if t_cold.ndim else float(t_cold)

    # -- outputs ------------------------------------------------------------------------

    @property
    def supply_temp_c(self) -> float:
        return float(self.supply.temp_c[0])

    @property
    def return_temp_c(self) -> float:
        return float(self.return_.temp_c[0])

    def pump_power_w(self) -> float:
        return self.pumps.power(self.pump_speed)

    def per_pump_power_w(self) -> np.ndarray:
        return self.pumps.per_pump_power(self.pump_speed)

    def header_pressures_pa(
        self, static_pa: float = HEADER_STATIC_PA
    ) -> tuple[float, float]:
        """(supply, return) header pressures.

        Supply = static + pump head less supply-side piping loss; return
        = static plus the residual.  Tracks flow^2, which is the shape
        Fig. 7(c) validates.
        """
        head = self.pumps.curve.head(
            self.total_flow / max(self.pumps.n_running, 1), self.pump_speed
        )
        head = float(np.maximum(head, 0.0))
        supply = static_pa + 0.75 * head
        ret = static_pa + 0.10 * head
        return supply, ret


__all__ = ["PrimaryLoop"]
