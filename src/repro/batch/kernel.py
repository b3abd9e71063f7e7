"""The plant kernel: B cooling plants per substep, bit-identical lanes.

:class:`BatchedPlantKernel` is the one implementation of the fused
plant backend's macro step, for B plants of one layout (one system: the
same CDU, pump and cell counts).  Plant state has one resident copy.
The CDU bank sits in the batch rows (``(B, 1)`` constant columns,
``(B, n)`` / ``(B, 2 * n)`` state rows), synced with each plant's
``CduLoopBank`` directly; its array sections (PID bank, hydraulics, CDU
thermal, return mix) run as one ufunc call over all lanes.  The
facility half — tower controls, primary tracking, primary/tower thermal
— sits in each lane's :class:`FusedPlantKernel
<repro.cooling.kernel.FusedPlantKernel>` mirror as Python floats.  A
plant stepped on its own is the one-lane case.

Each way of stepping a plant picks one of two sync rules:

- **Sync every step.** :meth:`CoolingPlant.step
  <repro.cooling.plant.CoolingPlant.step>` (and so
  :meth:`CoolingFMU.do_step <repro.cooling.fmu.CoolingFMU.do_step>`)
  drives a one-lane kernel: :meth:`~BatchedPlantKernel.gather` pulls
  the component graph into the row and the mirror,
  :meth:`~BatchedPlantKernel.advance` runs the substeps, and
  :meth:`~BatchedPlantKernel.write_back` pushes them back.
  Setpoint tuning, ``restore`` and CDU blockages on the graph therefore
  reach the next step.
- **Resident lanes.** The engines (the serial one with one lane, the
  batched one with B) gather every lane once, after warmup or a
  warm-cache restore, and then keep its CDU-bank state in the batch rows
  and its facility scalars in its mirror for the whole run.
  :meth:`~BatchedPlantKernel.cooling_records` builds each step's
  cooling record from that state, a CDU blockage goes to the row as
  well as to the graph (:meth:`~BatchedPlantKernel.set_blockage`), and
  :meth:`~BatchedPlantKernel.write_back` syncs the graphs once when the
  run ends.

Bit-identity with the reference object graph rests on two properties:

- NumPy's elementwise ufuncs are position-independent: running the
  reference's ``(n,)`` op as one row of a ``(B, n)`` op produces the
  same bits per element, and broadcasting a ``(B, 1)`` per-lane
  constant against ``(B, n)`` goes through the same inner loop as the
  reference's scalar operand.
- Every row of a C-contiguous ``(A, n)`` block is a contiguous ``(n,)``
  vector, so ``np.add.reduce(block, axis=1)`` sums each row with the
  pairwise-summation tree of the reference's own ``(n,)`` sum.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

from repro.cooling.kernel import FusedPlantKernel
from repro.cooling.loops.primary import HEADER_STATIC_PA
from repro.exceptions import CoolingModelError


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


class BatchedPlantKernel:
    """Advance B cooling plants per NumPy call, bit-identical per lane.

    ``plants`` are the per-lane :class:`~repro.cooling.plant.CoolingPlant`
    objects (any backend) of one layout: the same CDU, pump and cell
    counts, else :class:`~repro.exceptions.CoolingModelError`.  The
    kernel builds each lane's CDU-bank constants and facility mirror
    from its plant and gathers every lane; from then on the rows and
    mirrors hold the state, and a plant's component graph is stale
    until :meth:`write_back` (see the module docstring for when each
    caller syncs).  The kernel keeps no reference to the plants, so a
    plant can own its one-lane kernel without a reference cycle.
    """

    def __init__(self, plants) -> None:
        plants = list(plants)
        if not plants:
            raise CoolingModelError("batched kernel needs at least one lane")
        layouts = {
            (
                p.cdus.n,
                p.primary.pumps.spec.count,
                p.tower.pumps.spec.count,
                p.tower.farm.spec.total_cells,
            )
            for p in plants
        }
        if len(layouts) > 1:
            raise CoolingModelError(
                "batched kernel lanes must share one plant layout "
                f"(CDU, HTWP, CTWP, cell counts): {sorted(layouts)}"
            )
        ((n, htwps, ctwps, cells),) = layouts
        self.kernels = [FusedPlantKernel(p) for p in plants]
        B = len(self.kernels)
        w = 2 * n
        self.batch = B
        self.n = n

        def col(values) -> np.ndarray:
            return np.array([[float(v)] for v in values])

        # Per-lane CDU-bank constants as (B, 1) broadcast columns, derived
        # from each plant's freshly built component objects.
        cdus = [p.cdus for p in plants]
        self.cdu_res_k = col(c.resistance.k for c in cdus)
        self.cdu_q1 = col(
            c.pumps.operating_point(c.resistance, 1.0)[0] for c in cdus
        )
        self.valve_rangeability = col(c.valve.rangeability for c in cdus)
        self.valve_cv_max = col(c.valve.cv_max_flow for c in cdus)
        self.valve_dp_rated = [c.valve.dp_rated for c in cdus]
        self.hx_ua = col(c.hx.ua for c in cdus)
        pg = [c.hot.fluid for c in cdus]
        self.pg_tref = col(f.t_ref_c for f in pg)
        self.pg_drho = col(f.drho_dt for f in pg)
        self.pg_rho_ref = col(f.rho_ref_kg_m3 for f in pg)
        self.pg_cp = col(f.cp_j_kg_c for f in pg)
        self.w_cp = col(k.w_cp for k in self.kernels)
        self.hot_mcp = col(
            f.thermal_mass(c.hot.volume_m3) for f, c in zip(pg, cdus)
        )
        self.cold_mcp = col(
            f.thermal_mass(c.cold.volume_m3) for f, c in zip(pg, cdus)
        )
        self.cdu_pump_rated = col(c.pumps.spec.rated_power_w for c in cdus)
        self.cdu_pumps_running = col(c.pumps.n_running for c in cdus)
        # Facility output constants: rated powers per lane, and the unit
        # columns of the per-unit power vectors.
        self.htwp_rated = [p.primary.pumps.spec.rated_power_w for p in plants]
        self.ctwp_rated = [p.tower.pumps.spec.rated_power_w for p in plants]
        self.cell_fan_w = [p.tower.farm.spec.fan_power_w for p in plants]
        self.htwp_cols = np.arange(htwps)
        self.ctwp_cols = np.arange(ctwps)
        self.cell_cols = np.arange(cells)

        # Stacked PID bank constants: per lane, channels [:n] are the
        # pump-speed PID and [n:] the valve PID.  Per-channel
        # gain/bound/sign rows make one fused update bit-identical to
        # the two scalar-gain reference updates.
        pids = [(c.pump_pid, c.valve_pid) for c in cdus]
        if any(pp.kd or vp.kd for pp, vp in pids):
            raise CoolingModelError("fused CDU PID bank assumes kd == 0")
        for attr, pid_attr in (
            ("kp50", "kp"), ("ki50", "ki"), ("umin50", "u_min"),
            ("umax50", "u_max"), ("sign50", "sign"),
        ):
            setattr(self, attr, np.array([
                [getattr(pp, pid_attr)] * n + [getattr(vp, pid_attr)] * n
                for pp, vp in pids
            ]))

        # Resident mutable state.
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
        batch row and its facility mirror: the state, the setpoints and
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
        self.dp_term[bi, 0] = sqrt(header_dp / self.valve_dp_rated[bi])
        self.kernels[bi].pull(plant)

    def set_blockage(self, lane: int, cdu_index: int, severity: float) -> None:
        """Mirror a CDU blockage already set on lane ``lane``'s graph
        (:meth:`~repro.cooling.loops.cdu.CduLoopBank.set_blockage`
        validates it) into the resident row."""
        self.blockage[lane, cdu_index] = float(severity)

    def write_back(self, plants) -> None:
        """Push every lane's resident state onto its component graph
        (``plants`` in lane order)."""
        n = self.n
        for bi, (k, plant) in enumerate(zip(self.kernels, plants)):
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
            k.push(plant)

    # -- helpers -----------------------------------------------------------------

    def _advance_volume_bank(self, temp, t_in, flow, h, mass_cp, A) -> None:
        """ThermalVolume.advance for the width-n PG25 volume banks.

        Zero heat injection (plant volumes always receive heat through
        their inlet temperature), so the stagnant branch keeps the old
        temperature exactly.
        """
        v1, v2, mv = self.v1[:A], self.v2[:A], self.mv[:A]
        np.subtract(temp, self.pg_tref[:A], out=v1)
        np.multiply(v1, self.pg_drho[:A], out=v1)
        np.add(v1, self.pg_rho_ref[:A], out=v1)
        np.multiply(v1, flow, out=v1)
        np.multiply(v1, self.pg_cp[:A], out=v1)  # heat-capacity rate
        np.greater(flow, 1e-9, out=mv)
        np.maximum(v1, 1e-12, out=v2)
        np.divide(mass_cp[:A], v2, out=v2)  # tau
        np.divide(-h, v2, out=v2)
        np.expm1(v2, out=v2)
        np.negative(v2, out=v2)  # relax
        np.subtract(t_in, temp, out=v1)
        np.multiply(v1, v2, out=v1)
        np.add(temp, v1, out=v1)
        np.copyto(temp, v1, where=mv)

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
        kernels = self.kernels[:A]
        heat = self.heat[:A]
        for bi in range(A):
            heat[bi] = cdu_heat_w[bi]
        self.has_prev[:A] = True
        alphas = [k._alpha_for(h) for k in kernels]

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
        kp50 = self.kp50[:A]
        ki50 = self.ki50[:A]
        umin50 = self.umin50[:A]
        umax50 = self.umax50[:A]
        sign50 = self.sign50[:A]
        cdu_res_k = self.cdu_res_k[:A]
        cdu_q1 = self.cdu_q1[:A]
        rangeability = self.valve_rangeability[:A]
        cv_max = self.valve_cv_max[:A]
        hx_ua = self.hx_ua[:A]
        pg_tref = self.pg_tref[:A]
        pg_drho = self.pg_drho[:A]
        pg_rho_ref = self.pg_rho_ref[:A]
        pg_cp = self.pg_cp[:A]
        w_cp = self.w_cp[:A]
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
            mul(sec_flow, cdu_res_k, out=b1)
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
            for bi, k in enumerate(kernels):
                htws = k._tower_controls(h, alphas[bi])
                htws_col[bi, 0] = htws
                rho_w_col[bi, 0] = k.w_rho_ref + k.w_drho * (htws - k.w_tref)

            # --- 3. Hydraulics: secondary pump points + valve draws.
            np.sqrt(blockage, out=b0)
            mul(pump_speed, cdu_q1, out=sec_flow)
            div(sec_flow, b0, out=sec_flow)
            # The valve PID clamps its output to [0.05, 1], so the
            # reference's re-clip in flow_fraction is an exact identity.
            sub(valve_opening, 1.0, out=b0)
            np.power(rangeability, b0, out=b0)
            mul(b0, cv_max, out=pri_flow)
            mul(pri_flow, dp_term, out=pri_flow)

            # --- 4-5. Primary tracking per lane; each row of the
            # contiguous block sums with the reference's pairwise tree.
            demands = add_reduce(pri_flow, axis=1).tolist()
            for bi, k in enumerate(kernels):
                k._primary_tracking(demands[bi], h)

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
            advance_bank(hot_t, b1, sec_flow, h, self.hot_mcp, A)
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
            div(hx_ua, b9, out=b3)  # ntu (c_max retired)
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
            advance_bank(cold_t, b7, sec_flow, h, self.cold_mcp, A)

            # --- 7. Flow-weighted CDU return mix into the HTW header.
            mul(pri_flow, pri_return, out=b0)
            mixes = add_reduce(b0, axis=1).tolist()
            for bi, k in enumerate(kernels):
                demand = demands[bi]
                if demand > 1e-9:
                    mix_c = mixes[bi] / demand
                else:
                    mix_c = k.p_return_t

                # --- 8-9. Primary + tower loop thermal (per-lane scalar).
                k._facility_thermal(mix_c, wetbulb_c[bi], h)

    # -- outputs -----------------------------------------------------------------

    def cooling_records(self, system_power_w, active=None) -> list[dict]:
        """The engine's per-step cooling record for the first ``active``
        lanes, straight from the resident state.

        Exactly the ``DEFAULT_COOLING_RECORD`` fields of
        :meth:`CoolingPlant._snapshot
        <repro.cooling.plant.CoolingPlant._snapshot>` with
        ``system_power_w[b]`` as lane ``b``'s PUE denominator: the CDU
        fields as rows of ``(A, n)`` ufunc passes, the facility fields
        from the per-lane kernel scalars with the reference's scalar
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
        np.multiply(self.cdu_pump_rated[:A], pump_w, out=pump_w)
        np.multiply(self.cdu_pumps_running[:A], pump_w, out=pump_w)
        pri_flow = self.pri_flow[:A].copy()
        pri_return = self.pri_return[:A].copy()
        cold_t = self.cold_t[:A].copy()

        records = []
        n_htwp, htwp_w, n_ctwp, ctwp_w, n_cells, fan_w = (
            [], [], [], [], [], []
        )
        for bi, k in enumerate(self.kernels[:A]):
            # Primary loop: staged HTWPs and the header pressure.
            htwps, speed = k.p_n_running, k.p_pump_speed
            n_htwp.append(htwps)
            htwp_w.append(
                _pump_power(self.htwp_rated[bi], speed) if htwps else 0.0
            )
            q = k.p_total_flow / max(htwps, 1)
            head = speed * speed * k.p_h0 - k.p_kp * q * q
            if head < 0.0:
                head = 0.0
            # Tower loop: staged CTWPs and cell fans.
            ctwps, cells, fan = k.t_n_running, k.cell_stage.count, k.t_fan_speed
            n_ctwp.append(ctwps)
            ctwp_w.append(
                _pump_power(self.ctwp_rated[bi], k.t_pump_speed)
                if ctwps else 0.0
            )
            fan = 0.0 if fan < 0.0 else (1.0 if fan > 1.0 else fan)
            n_cells.append(cells)
            fan_w.append(
                cells * self.cell_fan_w[bi] * max(fan**3, 0.02) / cells
                if cells else 0.0
            )
            records.append({
                "pue": 0.0,
                "htw_supply_temp_c": k.p_supply_t,
                "htw_return_temp_c": k.p_return_t,
                "htw_supply_pressure_pa": HEADER_STATIC_PA + 0.75 * head,
                "ctw_supply_temp_c": k.t_supply_t,
                "num_ct_staged": cells,
                "num_htwp_staged": htwps,
                "num_ehx_staged": k.p_n_ehx,
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
