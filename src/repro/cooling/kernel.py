"""Fused cooling-plant mirror: one plant's facility half as Python floats.

The reference :class:`~repro.cooling.plant.CoolingPlant` advances each
3 s substep by walking a deep object graph (`CduLoopBank` →
`ThermalVolume`/`CounterflowHX`/`PumpGroup`/PIDs → `PrimaryLoop` →
`TowerLoop`) of dozens of tiny NumPy ops on size-25 arrays; per-call
overhead — method dispatch, ``asarray``/``broadcast_to`` validation,
``errstate`` contexts, temporaries — dominates every coupled run.

:class:`FusedPlantKernel` is the per-lane mirror of the graph's
*facility* half (primary and tower loops); the CDU bank lives in the
batch rows of the one plant kernel,
:class:`~repro.batch.kernel.BatchedPlantKernel`.  The mirror holds:

- the facility constants, derived from the plant's freshly built
  component objects (one source of truth — pump curves, resistances,
  the EHX UA, staging thresholds, the tower PID gains);
- :meth:`~FusedPlantKernel.pull` and :meth:`~FusedPlantKernel.push`,
  which copy the facility's mutable state from and onto the graph;
- the facility half of a substep (tower controls, primary tracking,
  primary and tower thermal) as pure Python-float sections, which the
  batched kernel runs per lane while it advances the CDU-bank arrays
  of all lanes together.

Every operation mirrors the reference's, in the same order, using the
same NumPy ufuncs wherever transcendental functions are involved
(``np.exp``/``np.expm1`` results can differ from ``libm`` at the ULP
level, so the mirror never substitutes ``math`` equivalents for them),
and plain Python floats only for IEEE-exact operations (``+ - * /``,
comparisons, ``sqrt``).  The fused backend is therefore *bit-identical*
to the reference object graph, which stays in the tree as the oracle
(``CoolingPlant(backend="reference")``) and as the snapshot interchange
format.
"""

from __future__ import annotations

from math import ceil, sqrt

import numpy as np

from repro.exceptions import CoolingModelError

_exp = np.exp
_expm1 = np.expm1


class _StageState:
    """Flat mirror of one :class:`StagingController`'s state + config."""

    __slots__ = (
        "count", "above", "below",
        "n_min", "n_max", "hi", "lo", "up_delay", "down_delay",
    )

    def __init__(self, ctl) -> None:
        self.n_min = ctl.n_min
        self.n_max = ctl.n_max
        self.hi = ctl.hi
        self.lo = ctl.lo
        self.up_delay = ctl.up_delay_s
        self.down_delay = ctl.down_delay_s
        self.pull(ctl)

    def pull(self, ctl) -> None:
        self.count = ctl.count
        self.above = float(ctl._above_s)
        self.below = float(ctl._below_s)

    def push(self, ctl) -> None:
        ctl.count = self.count
        ctl._above_s = self.above
        ctl._below_s = self.below

    def update(self, signal: float, dt: float) -> int:
        # Mirror of StagingController.update (pure-Python float ops).
        if signal > self.hi:
            self.above += dt
            self.below = 0.0
        elif signal < self.lo:
            self.below += dt
            self.above = 0.0
        else:
            self.above = 0.0
            self.below = 0.0
        if self.above >= self.up_delay and self.count < self.n_max:
            self.count += 1
            self.above = 0.0
        elif self.below >= self.down_delay and self.count > self.n_min:
            self.count -= 1
            self.below = 0.0
        return self.count


class _ScalarPid:
    """Flat mirror of a width-1 :class:`PidController` (Python floats)."""

    __slots__ = (
        "kp", "ki", "kd", "u_min", "u_max", "sign",
        "integral", "prev_error", "has_prev", "output",
    )

    def __init__(self, pid) -> None:
        if pid.width != 1:
            raise CoolingModelError("scalar PID mirror needs width 1")
        self.kp = pid.kp
        self.ki = pid.ki
        self.kd = pid.kd
        self.u_min = pid.u_min
        self.u_max = pid.u_max
        self.sign = pid.sign
        self.pull(pid)

    def pull(self, pid) -> None:
        self.integral = float(pid._integral[0])
        self.prev_error = float(pid._prev_error[0])
        self.has_prev = bool(pid._has_prev)
        self.output = float(pid.output[0])

    def push(self, pid) -> None:
        pid._integral = np.array([self.integral])
        pid._prev_error = np.array([self.prev_error])
        pid._has_prev = self.has_prev
        pid.output = np.array([self.output])

    def update(self, setpoint: float, measurement: float, dt: float) -> float:
        # Mirror of PidController.update for one channel; every
        # operation is IEEE-exact scalar arithmetic, so the result is
        # bit-identical to the vector implementation.
        error = self.sign * (setpoint - measurement)
        d_term = 0.0
        if self.kd and self.has_prev:
            d_term = self.kd * (error - self.prev_error) / dt
        candidate = self.integral + error * dt
        u_un = self.kp * error + self.ki * candidate + d_term
        u = u_un
        if u < self.u_min:
            u = self.u_min
        if u > self.u_max:
            u = self.u_max
        saturated = (u_un > self.u_max and error > 0) or (
            u_un < self.u_min and error < 0
        )
        if not saturated:
            self.integral = candidate
        self.prev_error = error
        self.has_prev = True
        self.output = u
        return u


class FusedPlantKernel:
    """Flat mirror of one :class:`CoolingPlant`'s facility half:
    constants, state, and the facility substep sections.

    Built once per plant from its component objects and pulled from
    them on construction; see the module docstring.
    """

    def __init__(self, plant) -> None:
        primary, tower = plant.primary, plant.tower

        # --- facility water constants -------------------------------------------
        water = primary.supply.fluid
        self.w_rho_ref = water.rho_ref_kg_m3
        self.w_drho = water.drho_dt
        self.w_tref = water.t_ref_c
        self.w_cp = water.cp_j_kg_c

        # --- primary-loop constants ---------------------------------------------
        self.p_res_k = primary.resistance.k
        self.p_h0 = primary.pumps.curve.h0
        self.p_kp = primary.pumps.curve.k_p
        self.p_min_speed = primary.pumps.spec.min_speed_fraction
        self.p_count = primary.pumps.spec.count
        self.ehx_ua = primary.ehx.ua
        self.p_num_ehx = primary.num_ehx_installed
        self.p_mcp = water.thermal_mass(primary.supply.volume_m3)
        self.cells_per_tower = plant.spec.cooling_towers.cells_per_tower
        # Deliverable flow at full speed per running-pump count (the
        # reference recomputes this constant every substep).
        qcap = [0.0]
        for m in range(1, self.p_count + 1):
            denom = self.p_kp / m**2 + self.p_res_k
            qcap.append(float(np.sqrt(1.0**2 * self.p_h0 / denom)))
        self.p_qcap = qcap

        # --- tower-loop constants -----------------------------------------------
        self.t_res_k = tower.resistance.k
        self.t_h0 = tower.pumps.curve.h0
        self.t_kp = tower.pumps.curve.k_p
        farm = tower.farm
        self.farm_eff = farm.spec.design_effectiveness
        self.farm_design_flow = farm.design_flow_per_cell
        self.t_mcp = water.thermal_mass(tower.supply.volume_m3)
        self.delay_tau = tower.htws_delay.tau_s
        self._alpha_h = None
        self._alpha = 0.0

        # --- facility state mirrors ---------------------------------------------
        self.fan_pid = _ScalarPid(tower.fan_pid)
        self.speed_pid = _ScalarPid(tower.speed_pid)
        self.p_stage = _StageState(primary.pump_staging)
        self.t_stage = _StageState(tower.pump_staging)
        self.cell_stage = _StageState(tower.cell_staging)

        self.pull(plant)

    # -- state exchange ----------------------------------------------------------

    def pull(self, plant) -> None:
        """Copy the facility's mutable state from the component objects."""
        primary, tower = plant.primary, plant.tower
        # Setpoints are pulled on every direct plant step: runtime
        # tuning (the setpoint optimizer) must reach the kernel.
        self.p_supply_sp = float(primary.supply_setpoint_c)
        self.t_press_sp = float(tower.pressure_setpoint_pa)

        self.p_n_running = primary.pumps.n_running
        self.p_n_ehx = primary.n_ehx
        self.p_supply_t = float(primary.supply.temp_c[0])
        self.p_return_t = float(primary.return_.temp_c[0])
        self.p_pump_speed = float(primary.pump_speed)
        self.p_total_flow = float(primary.total_flow)
        self.p_ehx_heat = float(primary.ehx_heat_w)
        self.p_stage.pull(primary.pump_staging)

        self.t_n_running = tower.pumps.n_running
        self.t_supply_t = float(tower.supply.temp_c[0])
        self.t_return_t = float(tower.return_.temp_c[0])
        self.t_pump_speed = float(tower.pump_speed)
        self.t_total_flow = float(tower.total_flow)
        self.t_fan_speed = float(tower.fan_speed)
        self.t_stage.pull(tower.pump_staging)
        self.cell_stage.pull(tower.cell_staging)
        self.delay_y = float(tower.htws_delay.y)
        self.prev_htws = tower._prev_htws_c
        self.fan_pid.pull(tower.fan_pid)
        self.speed_pid.pull(tower.speed_pid)

    def push(self, plant) -> None:
        """Write the advanced facility state back onto the component
        objects."""
        primary, tower = plant.primary, plant.tower
        primary.pumps.n_running = self.p_n_running
        primary.n_ehx = self.p_n_ehx
        primary.supply.temp_c = np.array([self.p_supply_t])
        primary.return_.temp_c = np.array([self.p_return_t])
        primary.pump_speed = self.p_pump_speed
        primary.total_flow = self.p_total_flow
        primary.ehx_heat_w = self.p_ehx_heat
        self.p_stage.push(primary.pump_staging)

        tower.pumps.n_running = self.t_n_running
        tower.supply.temp_c = np.array([self.t_supply_t])
        tower.return_.temp_c = np.array([self.t_return_t])
        tower.pump_speed = self.t_pump_speed
        tower.total_flow = self.t_total_flow
        tower.fan_speed = self.t_fan_speed
        self.t_stage.push(tower.pump_staging)
        self.cell_stage.push(tower.cell_staging)
        tower.htws_delay.y = self.delay_y
        tower._prev_htws_c = self.prev_htws
        self.fan_pid.push(tower.fan_pid)
        self.speed_pid.push(tower.speed_pid)

    # -- helpers -----------------------------------------------------------------

    def _advance_volume_scalar(self, temp, t_in, flow, h, mass_cp):
        """Scalar ThermalVolume.advance mirror (facility water volumes)."""
        if flow > 1e-9:
            cap = (
                self.w_rho_ref + self.w_drho * (temp - self.w_tref)
            ) * flow * self.w_cp
            if cap < 1e-12:
                cap = 1e-12
            tau = mass_cp / cap
            relax = -float(_expm1(-h / tau))
            return temp + (t_in - temp) * relax
        return temp

    def _ehx_transfer(self, t_hot, flow_hot, t_cold, flow_cold, ua):
        """Scalar CounterflowHX.transfer mirror (water/water EHX bank)."""
        c_hot = (
            self.w_rho_ref + self.w_drho * (t_hot - self.w_tref)
        ) * flow_hot * self.w_cp
        c_cold = (
            self.w_rho_ref + self.w_drho * (t_cold - self.w_tref)
        ) * flow_cold * self.w_cp
        c_min = c_hot if c_hot < c_cold else c_cold
        c_max = c_hot if c_hot > c_cold else c_cold
        dead = c_min <= 1e-9
        c_min_safe = 1.0 if dead else c_min
        cr = 0.0 if dead else c_min / (c_max if c_max > 1e-12 else 1e-12)
        ntu = ua / c_min_safe
        e = float(_exp(-ntu * (1.0 - cr)))
        den = 1.0 - cr * e
        eps = (1.0 - e) / (den if den > 1e-12 else 1e-12)
        if abs(1.0 - cr) < 1e-6:
            eps = ntu / (1.0 + ntu)
        if eps < 0.0:
            eps = 0.0
        elif eps > 1.0:
            eps = 1.0
        if dead:
            eps = 0.0
        q = eps * c_min * (t_hot - t_cold)
        t_hot_out = (
            t_hot - q / (c_hot if c_hot > 1e-12 else 1e-12)
            if c_hot > 1e-9
            else t_hot
        )
        t_cold_out = (
            t_cold + q / (c_cold if c_cold > 1e-12 else 1e-12)
            if c_cold > 1e-9
            else t_cold
        )
        return q, t_hot_out, t_cold_out

    def _farm_outlet(self, t_in, wetbulb, total_flow, n_cells, fan_speed):
        """Scalar CoolingTowerFarm.outlet_temperature mirror."""
        if n_cells == 0 or total_flow == 0:
            return float(t_in)
        per_cell = total_flow / n_cells
        fan = 0.0 if fan_speed < 0.0 else (1.0 if fan_speed > 1.0 else fan_speed)
        loading = per_cell / self.farm_design_flow
        if loading < 1e-3:
            loading = 1e-3
        # The reference's clip/maximum on 0-d inputs return np.float64
        # *scalars*, so its ``fan**0.6`` / ``loading**-0.4`` go through
        # the numpy scalar pow (which differs from the array-ufunc pow
        # at the ULP level) — mirror exactly that path.
        f = float(np.float64(fan) ** 0.6)
        if f < 0.15:
            f = 0.15
        eps = self.farm_eff * f * float(np.float64(loading) ** -0.4)
        if eps < 0.0:
            eps = 0.0
        elif eps > 0.98:
            eps = 0.98
        return float(t_in - eps * (t_in - wetbulb))

    # -- scalar substep sections -------------------------------------------------
    #
    # The facility half of a substep is pure Python-float state: the
    # batched kernel (:class:`repro.batch.kernel.BatchedPlantKernel`)
    # runs these sections per lane between its CDU-bank array sections.

    def _alpha_for(self, h: float) -> float:
        """The HTWS delay filter coefficient for substep ``h`` (memoized)."""
        if self._alpha_h != h:
            self._alpha = 1.0 - float(_exp(-h / self.delay_tau))
            self._alpha_h = h
        return self._alpha

    def _tower_controls(self, h: float, alpha: float) -> float:
        """Substep section 2: tower fan/pump/cell controls (all scalar).

        Returns the HTW supply temperature the CDU thermal section uses.
        """
        htws = self.p_supply_t
        if self.prev_htws is None:
            self.prev_htws = htws
        gradient = (htws - self.prev_htws) / h * 60.0
        self.prev_htws = htws
        err = htws - self.p_supply_sp
        self.delay_y += alpha * ((err + 2.0 * gradient) - self.delay_y)
        self.t_fan_speed = self.fan_pid.update(self.p_supply_sp, htws, h)
        self.cell_stage.update(self.delay_y, h)
        self.t_n_running = self.t_stage.count
        q = self.t_total_flow
        dp = self.t_res_k * q * abs(q)
        self.t_pump_speed = self.speed_pid.update(self.t_press_sp, dp, h)
        self.t_stage.update(self.t_pump_speed, h)
        if self.t_n_running == 0:
            self.t_total_flow = 0.0
        else:
            s = self.t_pump_speed
            s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
            if s <= 0.0:
                self.t_total_flow = 0.0
            else:
                denom = self.t_kp / self.t_n_running**2 + self.t_res_k
                self.t_total_flow = sqrt(s**2 * self.t_h0 / denom)
        return htws

    def _primary_tracking(self, demand: float, h: float) -> None:
        """Substep sections 4-5: primary speed/flow/staging + EHX staging."""
        self.p_n_running = self.p_stage.count
        if demand <= 0 or self.p_n_running == 0:
            speed = 0.0
        else:
            denom = self.p_kp / self.p_n_running**2 + self.p_res_k
            speed = sqrt(demand**2 * denom / self.p_h0)
            if speed > 1.0:
                speed = 1.0
        self.p_pump_speed = max(speed, self.p_min_speed)
        q_cap = self.p_qcap[self.p_n_running]
        self.p_total_flow = min(demand, q_cap)
        self.p_stage.update(self.p_pump_speed, h)
        towers_running = ceil(
            self.cell_stage.count / max(self.cells_per_tower, 1)
        )
        m = towers_running
        self.p_n_ehx = (
            1 if m < 1 else (self.p_num_ehx if m > self.p_num_ehx else m)
        )

    def _facility_thermal(self, mix_c: float, wetbulb_c: float, h: float) -> None:
        """Substep sections 8-9: primary + tower thermal advance."""
        self.p_return_t = self._advance_volume_scalar(
            self.p_return_t, mix_c, self.p_total_flow, h, self.p_mcp
        )
        ua = self.p_n_ehx * self.ehx_ua
        qx, t_hot2, ehx_cold_out = self._ehx_transfer(
            self.p_return_t,
            self.p_total_flow,
            self.t_supply_t,
            self.t_total_flow,
            ua,
        )
        self.p_ehx_heat = float(qx)
        self.p_supply_t = self._advance_volume_scalar(
            self.p_supply_t, t_hot2, self.p_total_flow, h, self.p_mcp
        )
        self.t_return_t = self._advance_volume_scalar(
            self.t_return_t, ehx_cold_out, self.t_total_flow, h, self.t_mcp
        )
        t_ct_out = self._farm_outlet(
            self.t_return_t,
            wetbulb_c,
            self.t_total_flow,
            self.cell_stage.count,
            self.t_fan_speed,
        )
        self.t_supply_t = self._advance_volume_scalar(
            self.t_supply_t, t_ct_out, self.t_total_flow, h, self.t_mcp
        )


__all__ = ["FusedPlantKernel"]
