"""The plant kernel: B cooling plants per substep, bit-identical lanes.

The reference :class:`~repro.cooling.plant.CoolingPlant` advances each
3 s substep by walking a deep object graph (`CduLoopBank` →
`ThermalVolume`/`CounterflowHX`/`PumpGroup`/PIDs → `PrimaryLoop` →
`TowerLoop`) of dozens of tiny NumPy ops on size-25 arrays, so per-call
overhead dominates every coupled run.

:class:`BatchedPlantKernel` is the one implementation of the fused
backend's macro step, for B plants of one system (one ``CoolingSpec``).
It derives every plant constant once, from the first plant's component
objects, and holds the plant state in one resident copy: the CDU bank
in the batch rows (``(B, n)`` / ``(B, 2 * n)``), whose array sections
(PID bank, hydraulics, CDU thermal, return mix) run as one ufunc call
over all lanes, and the facility half (primary and tower loops) beside
it, one small record of Python floats per lane, which the tower-control,
primary-tracking and facility-thermal sections step lane by lane.  A
plant stepped on its own is the one-lane case.

Each way of stepping a plant picks one of two sync rules:

- **Sync every step.** :meth:`CoolingPlant.step
  <repro.cooling.plant.CoolingPlant.step>` (and so
  :meth:`CoolingFMU.do_step <repro.cooling.fmu.CoolingFMU.do_step>`)
  drives a one-lane kernel: :meth:`~BatchedPlantKernel.gather` pulls
  the component graph into the kernel,
  :meth:`~BatchedPlantKernel.advance` runs the substeps, and
  :meth:`~BatchedPlantKernel.write_back` pushes them back.
  Setpoint tuning, ``restore`` and CDU blockages on the graph therefore
  reach the next step.
- **Resident lanes.** The engines (the serial one with one lane, the
  batched one with B) gather every lane once, after warmup or a
  warm-cache restore, and keep its state in the kernel for the run.
  :meth:`~BatchedPlantKernel.cooling_records` builds each step's
  cooling record from that state, a CDU blockage goes to the row as
  well as to the graph (:meth:`~BatchedPlantKernel.set_blockage`), and
  :meth:`~BatchedPlantKernel.write_back` syncs the graphs once when the
  run ends.

Every operation mirrors the reference's, in the same order, so the
kernel is *bit-identical* to the reference graph (kept as the oracle,
``CoolingPlant(backend="reference")``, and as the snapshot format):

- transcendentals go through the reference's NumPy ufuncs
  (``np.exp``/``np.expm1`` can differ from ``libm`` at the ULP level);
  plain Python floats serve only IEEE-exact operations (``+ - * /``,
  comparisons, ``sqrt``);
- elementwise ufuncs are position-independent: the reference's
  ``(n,)`` op run as one row of a ``(B, n)`` op, with the same scalar
  operand, gives the same bits per element;
- every row of a C-contiguous ``(A, n)`` block is a contiguous ``(n,)``
  vector, so ``np.add.reduce(block, axis=1)`` sums each row with the
  pairwise-summation tree of the reference's own ``(n,)`` sum.
"""

from __future__ import annotations

from copy import copy
from functools import lru_cache
from math import ceil, sqrt

import numpy as np

from repro.cooling.loops.primary import HEADER_STATIC_PA
from repro.exceptions import CoolingModelError

_exp = np.exp
_expm1 = np.expm1


@lru_cache(maxsize=4096)
def _pump_power(rated_w: float, speed: float) -> float:
    """:meth:`PumpCurve.power <repro.cooling.components.pump.PumpCurve.power>`
    for one speed, through the same 0-d array pow as the reference.

    Memoized: a pump pinned at a speed limit (the tower pumps, mostly)
    repeats its speed step after step.
    """
    if speed < 0 or speed > 1.2:
        raise CoolingModelError("pump speed out of range [0, 1.2]")
    cube = np.asarray(speed, dtype=np.float64) ** 3
    # np.maximum(cube, 0.05) without the ufunc call (NaN propagates).
    return float(rated_w * (0.05 if cube < 0.05 else cube))


def _unit_sums(cols, running, unit_w) -> np.ndarray:
    """Per-lane sums of the reference's per-unit power vectors:
    ``unit_w[b]`` on the first ``running[b]`` of ``cols`` units, 0
    elsewhere."""
    rows = np.where(
        cols < np.array(running)[:, None], np.array(unit_w)[:, None], 0.0
    )
    return np.add.reduce(rows, axis=1)


class _ScalarPid:
    """A width-1 :class:`PidController` as Python floats.

    Lanes hold shallow copies of one instance built from the first
    plant, so the gains are shared; :meth:`BatchedPlantKernel.gather`
    and :meth:`~BatchedPlantKernel.write_back` sync the state.
    """

    __slots__ = (
        "kp", "ki", "kd", "u_min", "u_max", "sign",
        "integral", "prev_error", "has_prev", "output",
    )

    def __init__(self, pid) -> None:
        if pid.width != 1:
            raise CoolingModelError("scalar PID needs width 1")
        self.kp = pid.kp
        self.ki = pid.ki
        self.kd = pid.kd
        self.u_min = pid.u_min
        self.u_max = pid.u_max
        self.sign = pid.sign

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
        # PidController.update for one channel; every operation is
        # IEEE-exact scalar arithmetic, so the result is bit-identical
        # to the vector implementation.
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


class _Facility:
    """One lane's facility state: the primary (``p_``) and tower
    (``t_``) loop scalars, the tower's two scalar PIDs, and shallow
    copies of the plant's three
    :class:`~repro.cooling.control.staging.StagingController` objects
    (HTWPs, CTWPs, cells)."""

    __slots__ = (
        "p_supply_sp", "t_press_sp",
        "p_n_running", "p_n_ehx", "p_supply_t", "p_return_t",
        "p_pump_speed", "p_total_flow", "p_ehx_heat",
        "t_n_running", "t_supply_t", "t_return_t", "t_pump_speed",
        "t_total_flow", "t_fan_speed", "delay_y", "prev_htws",
        "fan_pid", "speed_pid", "p_stage", "t_stage", "cell_stage",
    )

    def __init__(self, fan_pid, speed_pid, p_stage, t_stage, cell_stage):
        self.fan_pid = copy(fan_pid)
        self.speed_pid = copy(speed_pid)
        self.p_stage = copy(p_stage)
        self.t_stage = copy(t_stage)
        self.cell_stage = copy(cell_stage)


def _pull_stage(mine, theirs) -> None:
    mine.count = theirs.count
    mine._above_s = float(theirs._above_s)
    mine._below_s = float(theirs._below_s)


def _push_stage(mine, theirs) -> None:
    theirs.count = mine.count
    theirs._above_s = mine._above_s
    theirs._below_s = mine._below_s


class BatchedPlantKernel:
    """Advance B cooling plants per NumPy call, bit-identical per lane.

    ``plants`` are the per-lane :class:`~repro.cooling.plant.CoolingPlant`
    objects (any backend) of one system: one ``CoolingSpec``, else
    :class:`~repro.exceptions.CoolingModelError`.  The kernel derives
    every constant once from the first plant and gathers every lane;
    from then on the kernel holds the state, and a plant's component
    graph is stale until :meth:`write_back` (see the module docstring
    for when each caller syncs).  The kernel keeps no reference to the
    plants, so a plant can own its one-lane kernel without a reference
    cycle.
    """

    def __init__(self, plants) -> None:
        plants = list(plants)
        if not plants:
            raise CoolingModelError("batched kernel needs at least one lane")
        first = plants[0]
        if any(p.spec != first.spec for p in plants[1:]):
            raise CoolingModelError(
                "batched kernel lanes must share one plant layout "
                "(one CoolingSpec)"
            )
        cdus, primary, tower = first.cdus, first.primary, first.tower
        B = len(plants)
        n = cdus.n
        w = 2 * n
        self.batch = B
        self.n = n

        # --- CDU-bank constants ------------------------------------------------
        self.cdu_res_k = cdus.resistance.k
        self.cdu_q1 = float(cdus.pumps.operating_point(cdus.resistance, 1.0)[0])
        self.valve_rangeability = cdus.valve.rangeability
        self.valve_cv_max = cdus.valve.cv_max_flow
        self.valve_dp_rated = cdus.valve.dp_rated
        self.hx_ua = cdus.hx.ua
        pg = cdus.hot.fluid
        self.pg_tref = pg.t_ref_c
        self.pg_drho = pg.drho_dt
        self.pg_rho_ref = pg.rho_ref_kg_m3
        self.pg_cp = pg.cp_j_kg_c
        self.hot_mcp = pg.thermal_mass(cdus.hot.volume_m3)
        self.cold_mcp = pg.thermal_mass(cdus.cold.volume_m3)
        self.cdu_pump_rated = float(cdus.pumps.spec.rated_power_w)
        self.cdu_pumps_running = float(cdus.pumps.n_running)
        # The stacked PID bank: channels [:n] are the pump-speed PID and
        # [n:] the valve PID.  (1, 2n) gain/bound/sign rows make one
        # fused update bit-identical to the two scalar-gain reference
        # updates.
        pump_pid, valve_pid = cdus.pump_pid, cdus.valve_pid
        if pump_pid.kd or valve_pid.kd:
            raise CoolingModelError("fused CDU PID bank assumes kd == 0")
        for attr, pid_attr in (
            ("kp50", "kp"), ("ki50", "ki"), ("umin50", "u_min"),
            ("umax50", "u_max"), ("sign50", "sign"),
        ):
            setattr(self, attr, np.array([
                [getattr(pump_pid, pid_attr)] * n
                + [getattr(valve_pid, pid_attr)] * n
            ]))

        # --- facility water constants ------------------------------------------
        water = primary.supply.fluid
        self.w_rho_ref = water.rho_ref_kg_m3
        self.w_drho = water.drho_dt
        self.w_tref = water.t_ref_c
        self.w_cp = water.cp_j_kg_c

        # --- primary-loop constants --------------------------------------------
        self.p_res_k = primary.resistance.k
        self.p_h0 = primary.pumps.curve.h0
        self.p_kp = primary.pumps.curve.k_p
        self.p_min_speed = primary.pumps.spec.min_speed_fraction
        self.p_count = primary.pumps.spec.count
        self.ehx_ua = primary.ehx.ua
        self.p_num_ehx = primary.num_ehx_installed
        self.p_mcp = water.thermal_mass(primary.supply.volume_m3)
        self.cells_per_tower = first.spec.cooling_towers.cells_per_tower
        # Deliverable flow at full speed per running-pump count (the
        # reference recomputes this constant every substep).
        qcap = [0.0]
        for m in range(1, self.p_count + 1):
            denom = self.p_kp / m**2 + self.p_res_k
            qcap.append(float(np.sqrt(1.0**2 * self.p_h0 / denom)))
        self.p_qcap = qcap

        # --- tower-loop constants ----------------------------------------------
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

        # --- facility output constants -----------------------------------------
        # Rated powers, and the unit columns of the per-unit power vectors.
        self.htwp_rated = primary.pumps.spec.rated_power_w
        self.ctwp_rated = tower.pumps.spec.rated_power_w
        self.cell_fan_w = farm.spec.fan_power_w
        self.htwp_cols = np.arange(self.p_count)
        self.ctwp_cols = np.arange(tower.pumps.spec.count)
        self.cell_cols = np.arange(farm.spec.total_cells)

        # --- resident mutable state --------------------------------------------
        self.blockage = np.empty((B, n))
        self.sec_flow = np.empty((B, n))
        self.pri_flow = np.empty((B, n))
        self.hot_t = np.empty((B, n))
        self.cold_t = np.empty((B, n))
        self.hx_heat = np.empty((B, n))
        self.pri_return = np.empty((B, n))
        self.heat = np.empty((B, n))
        self.out50 = np.empty((B, w))
        self.integ50 = np.empty((B, w))
        self.preve50 = np.empty((B, w))
        self.sp50 = np.empty((B, w))
        self.meas50 = np.empty((B, w))
        self.dp_term = np.empty((B, 1))
        self.htws_col = np.empty((B, 1))
        self.rho_w_col = np.empty((B, 1))
        # The two CDU PIDs' ``_has_prev`` flags per lane (pump, valve).
        self.has_prev = np.zeros((B, 2), dtype=bool)
        controllers = (
            _ScalarPid(tower.fan_pid), _ScalarPid(tower.speed_pid),
            primary.pump_staging, tower.pump_staging, tower.cell_staging,
        )
        self.facility = [_Facility(*controllers) for _ in range(B)]
        for bi, plant in enumerate(plants):
            self.gather(bi, plant)

        # Scratch buffers, sized once and reused every substep.
        self.e50 = np.empty((B, w))
        self.c50a = np.empty((B, w))
        self.c50b = np.empty((B, w))
        self.m50a = np.empty((B, w), dtype=bool)
        self.m50b = np.empty((B, w), dtype=bool)
        self.m50c = np.empty((B, w), dtype=bool)
        self.b = [np.empty((B, n)) for _ in range(10)]
        self.mb = [np.empty((B, n), dtype=bool) for _ in range(3)]
        # Dedicated volume-advance scratch (may not alias the b pool:
        # volume inputs can be views of it).
        self.v1 = np.empty((B, n))
        self.v2 = np.empty((B, n))
        self.mv = np.empty((B, n), dtype=bool)

    # -- state exchange ----------------------------------------------------------

    def gather(self, bi: int, plant) -> None:
        """Pull lane ``bi``'s component graph (``plant``'s) into its
        batch row and its facility record: the state, the setpoints and
        the valve draw term (the header dp may have been retuned)."""
        header_dp = float(plant.primary_header_dp_pa)
        if header_dp < 0:
            raise CoolingModelError("header dp must be non-negative")
        cdus, n = plant.cdus, self.n
        # Setpoints are pulled on every gather: runtime tuning (the
        # setpoint optimizer) must reach the kernel.
        self.sp50[bi, :n] = cdus.dp_setpoint_pa
        self.sp50[bi, n:] = cdus.supply_setpoint_c
        self.blockage[bi] = cdus.blockage_factor
        self.sec_flow[bi] = cdus.secondary_flow
        self.pri_flow[bi] = cdus.primary_flow
        self.hot_t[bi] = cdus.hot.temp_c
        self.cold_t[bi] = cdus.cold.temp_c
        self.hx_heat[bi] = cdus.hx_heat_w
        self.pri_return[bi] = cdus.primary_return_c
        self.out50[bi, :n] = cdus.pump_speed
        self.out50[bi, n:] = cdus.valve_opening
        self.integ50[bi, :n] = cdus.pump_pid._integral
        self.integ50[bi, n:] = cdus.valve_pid._integral
        self.preve50[bi, :n] = cdus.pump_pid._prev_error
        self.preve50[bi, n:] = cdus.valve_pid._prev_error
        self.has_prev[bi] = (cdus.pump_pid._has_prev, cdus.valve_pid._has_prev)
        # Valve draw at the header dp; sqrt is correctly rounded, so
        # math.sqrt == np.sqrt here.
        self.dp_term[bi, 0] = sqrt(header_dp / self.valve_dp_rated)

        f, primary, tower = self.facility[bi], plant.primary, plant.tower
        f.p_supply_sp = float(primary.supply_setpoint_c)
        f.t_press_sp = float(tower.pressure_setpoint_pa)
        f.p_n_running = primary.pumps.n_running
        f.p_n_ehx = primary.n_ehx
        f.p_supply_t = float(primary.supply.temp_c[0])
        f.p_return_t = float(primary.return_.temp_c[0])
        f.p_pump_speed = float(primary.pump_speed)
        f.p_total_flow = float(primary.total_flow)
        f.p_ehx_heat = float(primary.ehx_heat_w)
        f.t_n_running = tower.pumps.n_running
        f.t_supply_t = float(tower.supply.temp_c[0])
        f.t_return_t = float(tower.return_.temp_c[0])
        f.t_pump_speed = float(tower.pump_speed)
        f.t_total_flow = float(tower.total_flow)
        f.t_fan_speed = float(tower.fan_speed)
        f.delay_y = float(tower.htws_delay.y)
        f.prev_htws = tower._prev_htws_c
        f.fan_pid.pull(tower.fan_pid)
        f.speed_pid.pull(tower.speed_pid)
        _pull_stage(f.p_stage, primary.pump_staging)
        _pull_stage(f.t_stage, tower.pump_staging)
        _pull_stage(f.cell_stage, tower.cell_staging)

    def set_blockage(self, lane: int, cdu_index: int, severity: float) -> None:
        """Mirror a CDU blockage already set on lane ``lane``'s graph
        (:meth:`~repro.cooling.loops.cdu.CduLoopBank.set_blockage`
        validates it) into the resident row."""
        self.blockage[lane, cdu_index] = float(severity)

    def write_back(self, plants) -> None:
        """Push every lane's resident state onto its component graph
        (``plants`` in lane order)."""
        n = self.n
        for bi, (f, plant) in enumerate(zip(self.facility, plants)):
            cdus = plant.cdus
            cdus.secondary_flow = self.sec_flow[bi].copy()
            cdus.primary_flow = self.pri_flow[bi].copy()
            cdus.hot.temp_c = self.hot_t[bi].copy()
            cdus.cold.temp_c = self.cold_t[bi].copy()
            cdus.hx_heat_w = self.hx_heat[bi].copy()
            cdus.primary_return_c = self.pri_return[bi].copy()
            cdus.pump_speed = self.out50[bi, :n].copy()
            cdus.valve_opening = self.out50[bi, n:].copy()
            cdus.pump_pid.output = self.out50[bi, :n].copy()
            cdus.valve_pid.output = self.out50[bi, n:].copy()
            cdus.pump_pid._integral = self.integ50[bi, :n].copy()
            cdus.valve_pid._integral = self.integ50[bi, n:].copy()
            cdus.pump_pid._prev_error = self.preve50[bi, :n].copy()
            cdus.valve_pid._prev_error = self.preve50[bi, n:].copy()
            (cdus.pump_pid._has_prev,
             cdus.valve_pid._has_prev) = self.has_prev[bi].tolist()

            primary, tower = plant.primary, plant.tower
            primary.pumps.n_running = f.p_n_running
            primary.n_ehx = f.p_n_ehx
            primary.supply.temp_c = np.array([f.p_supply_t])
            primary.return_.temp_c = np.array([f.p_return_t])
            primary.pump_speed = f.p_pump_speed
            primary.total_flow = f.p_total_flow
            primary.ehx_heat_w = f.p_ehx_heat
            tower.pumps.n_running = f.t_n_running
            tower.supply.temp_c = np.array([f.t_supply_t])
            tower.return_.temp_c = np.array([f.t_return_t])
            tower.pump_speed = f.t_pump_speed
            tower.total_flow = f.t_total_flow
            tower.fan_speed = f.t_fan_speed
            tower.htws_delay.y = f.delay_y
            tower._prev_htws_c = f.prev_htws
            f.fan_pid.push(tower.fan_pid)
            f.speed_pid.push(tower.speed_pid)
            _push_stage(f.p_stage, primary.pump_staging)
            _push_stage(f.t_stage, tower.pump_staging)
            _push_stage(f.cell_stage, tower.cell_staging)

    # -- helpers -----------------------------------------------------------------

    def _advance_volume_bank(self, temp, t_in, flow, h, mass_cp, A) -> None:
        """ThermalVolume.advance for the width-n PG25 volume banks.

        Zero heat injection (plant volumes always receive heat through
        their inlet temperature), so the stagnant branch keeps the old
        temperature exactly.
        """
        v1, v2, mv = self.v1[:A], self.v2[:A], self.mv[:A]
        np.subtract(temp, self.pg_tref, out=v1)
        np.multiply(v1, self.pg_drho, out=v1)
        np.add(v1, self.pg_rho_ref, out=v1)
        np.multiply(v1, flow, out=v1)
        np.multiply(v1, self.pg_cp, out=v1)  # heat-capacity rate
        np.greater(flow, 1e-9, out=mv)
        np.maximum(v1, 1e-12, out=v2)
        np.divide(mass_cp, v2, out=v2)  # tau
        np.divide(-h, v2, out=v2)
        np.expm1(v2, out=v2)
        np.negative(v2, out=v2)  # relax
        np.subtract(t_in, temp, out=v1)
        np.multiply(v1, v2, out=v1)
        np.add(temp, v1, out=v1)
        np.copyto(temp, v1, where=mv)

    def _advance_volume_scalar(self, temp, t_in, flow, h, mass_cp):
        """ThermalVolume.advance for one facility water volume."""
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
        """CounterflowHX.transfer for the water/water EHX bank."""
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
        """CoolingTowerFarm.outlet_temperature for one lane."""
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

    # -- facility substep sections (per lane, Python floats) ---------------------

    def _alpha_for(self, h: float) -> float:
        """The HTWS delay filter coefficient for substep ``h`` (memoized)."""
        if self._alpha_h != h:
            self._alpha = 1.0 - float(_exp(-h / self.delay_tau))
            self._alpha_h = h
        return self._alpha

    def _tower_controls(self, f: _Facility, h: float, alpha: float) -> float:
        """Substep section 2: tower fan/pump/cell controls.

        Returns the HTW supply temperature the CDU thermal section uses.
        """
        htws = f.p_supply_t
        if f.prev_htws is None:
            f.prev_htws = htws
        gradient = (htws - f.prev_htws) / h * 60.0
        f.prev_htws = htws
        err = htws - f.p_supply_sp
        f.delay_y += alpha * ((err + 2.0 * gradient) - f.delay_y)
        f.t_fan_speed = f.fan_pid.update(f.p_supply_sp, htws, h)
        f.cell_stage.update(f.delay_y, h)
        f.t_n_running = f.t_stage.count
        q = f.t_total_flow
        dp = self.t_res_k * q * abs(q)
        f.t_pump_speed = f.speed_pid.update(f.t_press_sp, dp, h)
        f.t_stage.update(f.t_pump_speed, h)
        if f.t_n_running == 0:
            f.t_total_flow = 0.0
        else:
            s = f.t_pump_speed
            s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
            if s <= 0.0:
                f.t_total_flow = 0.0
            else:
                denom = self.t_kp / f.t_n_running**2 + self.t_res_k
                f.t_total_flow = sqrt(s**2 * self.t_h0 / denom)
        return htws

    def _primary_tracking(self, f: _Facility, demand: float, h: float) -> None:
        """Substep sections 4-5: primary speed/flow/staging + EHX staging."""
        f.p_n_running = f.p_stage.count
        if demand <= 0 or f.p_n_running == 0:
            speed = 0.0
        else:
            denom = self.p_kp / f.p_n_running**2 + self.p_res_k
            speed = sqrt(demand**2 * denom / self.p_h0)
            if speed > 1.0:
                speed = 1.0
        f.p_pump_speed = max(speed, self.p_min_speed)
        f.p_total_flow = min(demand, self.p_qcap[f.p_n_running])
        f.p_stage.update(f.p_pump_speed, h)
        m = ceil(f.cell_stage.count / max(self.cells_per_tower, 1))
        f.p_n_ehx = 1 if m < 1 else (self.p_num_ehx if m > self.p_num_ehx else m)

    def _facility_thermal(
        self, f: _Facility, mix_c: float, wetbulb_c: float, h: float
    ) -> None:
        """Substep sections 8-9: primary + tower thermal advance."""
        volume = self._advance_volume_scalar
        f.p_return_t = volume(
            f.p_return_t, mix_c, f.p_total_flow, h, self.p_mcp
        )
        qx, t_hot2, ehx_cold_out = self._ehx_transfer(
            f.p_return_t,
            f.p_total_flow,
            f.t_supply_t,
            f.t_total_flow,
            f.p_n_ehx * self.ehx_ua,
        )
        f.p_ehx_heat = float(qx)
        f.p_supply_t = volume(
            f.p_supply_t, t_hot2, f.p_total_flow, h, self.p_mcp
        )
        f.t_return_t = volume(
            f.t_return_t, ehx_cold_out, f.t_total_flow, h, self.t_mcp
        )
        t_ct_out = self._farm_outlet(
            f.t_return_t,
            wetbulb_c,
            f.t_total_flow,
            f.cell_stage.count,
            f.t_fan_speed,
        )
        f.t_supply_t = volume(
            f.t_supply_t, t_ct_out, f.t_total_flow, h, self.t_mcp
        )

    # -- the batched macro step --------------------------------------------------

    def advance(self, cdu_heat_w, wetbulb_c, h, n_sub: int, active=None) -> None:
        """Advance the first ``active`` lanes ``n_sub`` substeps of ``h``.

        ``cdu_heat_w`` is a per-lane sequence of ``(n,)`` heat arrays,
        ``wetbulb_c`` a per-lane sequence of floats.  Active lanes must
        be a batch prefix (the engine orders lanes longest-first so
        finished lanes drop off the tail and keep their rows untouched).
        """
        A = self.batch if active is None else int(active)
        if A == 0:
            return
        n = self.n
        facility = self.facility[:A]
        heat = self.heat[:A]
        for bi in range(A):
            heat[bi] = cdu_heat_w[bi]
        self.has_prev[:A] = True
        alpha = self._alpha_for(h)

        blockage = self.blockage[:A]
        sec_flow = self.sec_flow[:A]
        pri_flow = self.pri_flow[:A]
        hot_t = self.hot_t[:A]
        cold_t = self.cold_t[:A]
        hx_heat = self.hx_heat[:A]
        pri_return = self.pri_return[:A]
        out50 = self.out50[:A]
        integ50 = self.integ50[:A]
        preve50 = self.preve50[:A]
        sp50 = self.sp50[:A]
        meas50 = self.meas50[:A]
        dp_term = self.dp_term[:A]
        b = self.b
        b0, b1, b2, b3, b4 = (x[:A] for x in b[:5])
        b5, b6, b7, b8, b9 = (x[:A] for x in b[5:])
        mb0, mb1, mb2 = (x[:A] for x in self.mb)
        e50 = self.e50[:A]
        c50a = self.c50a[:A]
        c50b = self.c50b[:A]
        m50a = self.m50a[:A]
        m50b = self.m50b[:A]
        m50c = self.m50c[:A]
        htws_col = self.htws_col[:A]
        rho_w_col = self.rho_w_col[:A]
        pump_speed = out50[:, :n]
        valve_opening = out50[:, n:]
        kp50, ki50, sign50 = self.kp50, self.ki50, self.sign50
        umin50, umax50 = self.umin50, self.umax50
        pg_tref, pg_drho = self.pg_tref, self.pg_drho
        pg_rho_ref, pg_cp = self.pg_rho_ref, self.pg_cp
        w_rho_ref, w_drho, w_tref = self.w_rho_ref, self.w_drho, self.w_tref
        w_cp = self.w_cp
        hot_mcp, cold_mcp = self.hot_mcp, self.cold_mcp
        tower_controls = self._tower_controls
        primary_tracking = self._primary_tracking
        facility_thermal = self._facility_thermal
        # Ufunc locals: the loop below issues a few hundred tiny calls
        # per macro step, so attribute lookups are measurable.
        mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
        npmax, npmin, add_reduce = np.maximum, np.minimum, np.add.reduce
        gt, lt, le, absolute = np.greater, np.less, np.less_equal, np.absolute
        clip, neg = np.clip, np.negative
        land, lor, lnot = np.logical_and, np.logical_or, np.logical_not
        copyto = np.copyto
        exp = np.exp
        advance_bank = self._advance_volume_bank

        for _ in range(n_sub):
            # --- 1. CDU controls: the stacked pump-speed + valve PID bank.
            absolute(sec_flow, out=b0)
            mul(sec_flow, self.cdu_res_k, out=b1)
            mul(b1, b0, out=b1)
            mul(b1, blockage, out=b1)  # measured loop dp
            meas50[:, :n] = b1
            meas50[:, n:] = cold_t
            sub(sp50, meas50, out=e50)
            mul(e50, sign50, out=e50)
            mul(e50, h, out=c50a)
            add(integ50, c50a, out=c50a)  # candidate integral
            mul(kp50, e50, out=c50b)
            mul(ki50, c50a, out=out50)
            add(c50b, out50, out=c50b)  # unclamped output
            clip(c50b, umin50, umax50, out=out50)
            gt(c50b, umax50, out=m50a)
            gt(e50, 0.0, out=m50b)
            land(m50a, m50b, out=m50a)
            lt(c50b, umin50, out=m50b)
            lt(e50, 0.0, out=m50c)
            land(m50b, m50c, out=m50b)
            lor(m50a, m50b, out=m50a)
            lnot(m50a, out=m50a)  # integrator keep mask
            copyto(integ50, c50a, where=m50a)
            copyto(preve50, e50)

            # --- 2. Tower controls (per-lane scalar state), and the HTW
            # density at the supply temperature they return.
            for bi, f in enumerate(facility):
                htws = tower_controls(f, h, alpha)
                htws_col[bi, 0] = htws
                rho_w_col[bi, 0] = w_rho_ref + w_drho * (htws - w_tref)

            # --- 3. Hydraulics: secondary pump points + valve draws.
            np.sqrt(blockage, out=b0)
            mul(pump_speed, self.cdu_q1, out=sec_flow)
            div(sec_flow, b0, out=sec_flow)
            # The valve PID clamps its output to [0.05, 1], so the
            # reference's re-clip in flow_fraction is an exact identity.
            sub(valve_opening, 1.0, out=b0)
            np.power(self.valve_rangeability, b0, out=b0)
            mul(b0, self.valve_cv_max, out=pri_flow)
            mul(pri_flow, dp_term, out=pri_flow)

            # --- 4-5. Primary tracking per lane; each row of the
            # contiguous block sums with the reference's pairwise tree.
            demands = add_reduce(pri_flow, axis=1).tolist()
            for bi, f in enumerate(facility):
                primary_tracking(f, demands[bi], h)

            # --- 6. CDU thermal: racks -> hot volume -> HEX-1600 -> cold.
            sub(cold_t, pg_tref, out=b0)
            mul(b0, pg_drho, out=b0)
            add(b0, pg_rho_ref, out=b0)
            mul(b0, sec_flow, out=b0)
            mul(b0, pg_cp, out=b0)  # secondary cap rate
            npmax(b0, 1e-12, out=b1)
            div(heat, b1, out=b1)
            gt(b0, 1e-9, out=mb0)
            # where(mb0, b1, 0.0) as a mask multiply (finite b1, so
            # identical values; dead HX channels below use the same
            # trick).
            mul(b1, mb0, out=b1)
            add(cold_t, b1, out=b1)  # rack outlet temperature
            advance_bank(hot_t, b1, sec_flow, h, hot_mcp, A)
            # HEX-1600 bank: secondary hot side -> primary cold side.
            sub(hot_t, pg_tref, out=b0)
            mul(b0, pg_drho, out=b0)
            add(b0, pg_rho_ref, out=b0)
            mul(b0, sec_flow, out=b0)
            mul(b0, pg_cp, out=b0)  # c_hot
            mul(pri_flow, rho_w_col, out=b1)
            mul(b1, w_cp, out=b1)  # c_cold
            npmin(b0, b1, out=b2)  # c_min
            npmax(b0, b1, out=b3)  # c_max
            le(b2, 1e-9, out=mb0)  # dead channels
            npmax(b3, 1e-12, out=b4)
            div(b2, b4, out=b4)
            copyto(b4, 0.0, where=mb0)  # cr
            copyto(b9, b2)
            copyto(b9, 1.0, where=mb0)  # c_min_safe
            div(self.hx_ua, b9, out=b3)  # ntu (c_max retired)
            sub(1.0, b4, out=b5)
            absolute(b5, out=b6)
            lt(b6, 1e-6, out=mb1)  # near-unity Cr
            mul(b3, b5, out=b6)
            neg(b6, out=b6)
            exp(b6, out=b6)  # e
            sub(1.0, b6, out=b5)
            mul(b4, b6, out=b7)
            sub(1.0, b7, out=b7)
            npmax(b7, 1e-12, out=b7)
            div(b5, b7, out=b5)  # general effectiveness
            add(b3, 1.0, out=b7)
            div(b3, b7, out=b7)  # balanced effectiveness
            copyto(b5, b7, where=mb1)  # eps
            clip(b5, 0.0, 1.0, out=b5)
            lnot(mb0, out=mb2)
            mul(b5, mb2, out=b5)  # dead channels: eps = 0
            sub(hot_t, htws_col, out=b6)
            mul(b5, b2, out=b4)
            mul(b4, b6, out=b4)  # q
            copyto(hx_heat, b4)
            npmax(b0, 1e-12, out=b7)
            div(b4, b7, out=b7)
            sub(hot_t, b7, out=b7)
            gt(b0, 1e-9, out=mb1)
            lnot(mb1, out=mb2)
            copyto(b7, hot_t, where=mb2)  # t_hot_out
            npmax(b1, 1e-12, out=b8)
            div(b4, b8, out=b8)
            add(b8, htws_col, out=b8)
            gt(b1, 1e-9, out=mb2)
            copyto(pri_return, htws_col)
            copyto(pri_return, b8, where=mb2)
            advance_bank(cold_t, b7, sec_flow, h, cold_mcp, A)

            # --- 7. Flow-weighted CDU return mix into the HTW header.
            mul(pri_flow, pri_return, out=b0)
            mixes = add_reduce(b0, axis=1).tolist()
            for bi, f in enumerate(facility):
                demand = demands[bi]
                if demand > 1e-9:
                    mix_c = mixes[bi] / demand
                else:
                    mix_c = f.p_return_t

                # --- 8-9. Primary + tower loop thermal (per-lane scalar).
                facility_thermal(f, mix_c, wetbulb_c[bi], h)

    # -- outputs -----------------------------------------------------------------

    def cooling_records(self, system_power_w, active=None) -> list[dict]:
        """The engine's per-step cooling record for the first ``active``
        lanes, straight from the resident state.

        Exactly the ``DEFAULT_COOLING_RECORD`` fields of
        :meth:`CoolingPlant._snapshot
        <repro.cooling.plant.CoolingPlant._snapshot>` with
        ``system_power_w[b]`` as lane ``b``'s PUE denominator: the CDU
        fields as rows of ``(A, n)`` ufunc passes, the facility fields
        from each lane's facility record with the reference's scalar
        arithmetic (pump and fan powers included), and the reference's
        vector sums as one row reduce per quantity.
        Every call returns fresh arrays.
        """
        A = self.batch if active is None else int(active)
        pump_w = self.out50[:A, :self.n].copy()
        if np.any(pump_w < 0) or np.any(pump_w > 1.2):
            raise CoolingModelError("pump speed out of range [0, 1.2]")
        np.power(pump_w, 3, out=pump_w)
        np.maximum(pump_w, 0.05, out=pump_w)
        np.multiply(self.cdu_pump_rated, pump_w, out=pump_w)
        np.multiply(self.cdu_pumps_running, pump_w, out=pump_w)
        pri_flow = self.pri_flow[:A].copy()
        pri_return = self.pri_return[:A].copy()
        cold_t = self.cold_t[:A].copy()

        records = []
        n_htwp, htwp_w, n_ctwp, ctwp_w, n_cells, fan_w = (
            [], [], [], [], [], []
        )
        for bi, f in enumerate(self.facility[:A]):
            # Primary loop: staged HTWPs and the header pressure.
            htwps, speed = f.p_n_running, f.p_pump_speed
            n_htwp.append(htwps)
            htwp_w.append(
                _pump_power(self.htwp_rated, speed) if htwps else 0.0
            )
            q = f.p_total_flow / max(htwps, 1)
            head = speed * speed * self.p_h0 - self.p_kp * q * q
            if head < 0.0:
                head = 0.0
            # Tower loop: staged CTWPs and cell fans.
            ctwps, cells, fan = f.t_n_running, f.cell_stage.count, f.t_fan_speed
            n_ctwp.append(ctwps)
            ctwp_w.append(
                _pump_power(self.ctwp_rated, f.t_pump_speed) if ctwps else 0.0
            )
            fan = 0.0 if fan < 0.0 else (1.0 if fan > 1.0 else fan)
            n_cells.append(cells)
            fan_w.append(
                cells * self.cell_fan_w * max(fan**3, 0.02) / cells
                if cells else 0.0
            )
            records.append({
                "pue": 0.0,
                "htw_supply_temp_c": f.p_supply_t,
                "htw_return_temp_c": f.p_return_t,
                "htw_supply_pressure_pa": HEADER_STATIC_PA + 0.75 * head,
                "ctw_supply_temp_c": f.t_supply_t,
                "num_ct_staged": cells,
                "num_htwp_staged": htwps,
                "num_ehx_staged": f.p_n_ehx,
                "aux_power_w": 0.0,
                "cdu_primary_flow_m3s": pri_flow[bi],
                "cdu_primary_return_temp_c": pri_return[bi],
                "cdu_secondary_supply_temp_c": cold_t[bi],
                "cdu_pump_power_w": pump_w[bi],
            })

        # Facility aux power (HTWPs + CTWPs + fans) and PUE, elementwise
        # over lanes in the reference's operation order.
        aux_cep_w = _unit_sums(self.htwp_cols, n_htwp, htwp_w)
        aux_cep_w += _unit_sums(self.ctwp_cols, n_ctwp, ctwp_w)
        aux_cep_w += _unit_sums(self.cell_cols, n_cells, fan_w)
        power = np.array(system_power_w, dtype=np.float64)
        pue = np.ones(A)
        np.divide(power + aux_cep_w, power, out=pue, where=power > 0)
        aux_w = aux_cep_w + np.add.reduce(pump_w, axis=1)
        for record, p, a in zip(records, pue.tolist(), aux_w.tolist()):
            record["pue"] = p
            record["aux_power_w"] = a
        return records


__all__ = ["BatchedPlantKernel"]
