"""Batched cooling-plant kernel: B plants per substep, bit-identical lanes.

:class:`BatchedPlantKernel` stacks B :class:`FusedPlantKernel
<repro.cooling.kernel.FusedPlantKernel>` instances and advances them
together: the CDU-bank array sections (PID bank, hydraulics, CDU
thermal, return mix) run as ``(B, n_max)`` / ``(B, 2 * n_max)`` ufunc
calls, while the facility half of a substep — tower controls, primary
tracking, primary/tower thermal — stays per-lane Python-float state and
runs through the scalar section methods the fused kernel factored out
exactly for this purpose.

State residency: the batch rows are the home of every lane's CDU-bank
state for the whole run, and the per-lane fused kernels hold its
facility scalars.  Each lane is gathered once, at construction (after
warmup or a warm-cache restore); :meth:`~BatchedPlantKernel.advance`
then works on that resident state with no per-step exchange with the
component graph, and :meth:`~BatchedPlantKernel.cooling_records` builds
each step's cooling record from it.  The graph is synced on demand
only: a CDU blockage goes to the row as well as to the graph
(:meth:`~BatchedPlantKernel.set_blockage`), and
:meth:`~BatchedPlantKernel.write_back` pushes every lane back once
when the run ends.

Bit-identity with the serial fused kernel (and hence with the reference
object graph) rests on three properties:

- NumPy's elementwise ufuncs are position-independent: running the
  serial ``(n,)`` op as one row of a ``(B, n_max)`` op produces the
  same bits per element, and broadcasting a ``(B, 1)`` per-lane
  constant against ``(B, n_max)`` goes through the same inner loop as
  the serial scalar operand.
- Reductions are **never** padded: every per-lane sum slices the real
  prefix ``row[:n_b]`` (a contiguous view, so the pairwise summation
  tree matches the serial ``(n,)`` sum exactly).
- The serial kernel's ``.all()`` / ``.any()`` fast-path branches are
  pure optimizations; the batched kernel always takes the general
  masked path, which computes identical values.

Lane padding: lanes with fewer CDUs than ``n_max`` occupy the prefix of
their row; padded tail columns hold inert values (blockage 1, flows 0,
``cv_max`` 0, PID gains/bounds 0 with sign 1, temperatures 25 °C) whose
dynamics stay finite and — because ``cv_max`` pads to zero — produce
zero primary-flow demand, so they can never leak into a live lane or a
real-prefix reduction.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

from repro.cooling.kernel import FusedPlantKernel, _exp, _expm1, _power
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


def _lane_groups(sizes) -> list[tuple[int, np.ndarray]]:
    """Lane indices grouped by a per-lane width, ascending per group."""
    groups: dict[int, list[int]] = {}
    for bi, size in enumerate(sizes):
        groups.setdefault(int(size), []).append(bi)
    return [(size, np.array(lanes)) for size, lanes in groups.items()]


def _row_sums(rows: np.ndarray, groups, A: int) -> np.ndarray:
    """Per-lane ``np.sum`` of each lane's real prefix of ``rows``.

    Lanes of one width reduce together as the rows of one contiguous
    ``(k, width)`` block, so each lane's pairwise-summation tree is the
    one its own ``(width,)`` vector would get.
    """
    out = np.empty(A)
    for size, lanes in groups:
        lanes = lanes[:np.searchsorted(lanes, A)]
        if lanes.size:
            out[lanes] = np.add.reduce(rows[lanes, :size], axis=1)
    return out


class BatchedPlantKernel:
    """Advance B cooling plants per NumPy call, bit-identical per lane.

    ``plants`` are the per-lane :class:`~repro.cooling.plant.CoolingPlant`
    objects (any backend).  The kernel builds its own fused mirrors,
    gathers every lane's state into its batch rows once, and from then
    on owns that state: the plants' component graphs are stale until
    :meth:`write_back`.  Lanes may have different CDU counts; they are
    padded to the widest lane.
    """

    def __init__(self, plants) -> None:
        plants = list(plants)
        if not plants:
            raise CoolingModelError("batched kernel needs at least one lane")
        self.plants = plants
        self.kernels = [FusedPlantKernel(p) for p in plants]
        B = len(self.kernels)
        n_max = max(k.n for k in self.kernels)
        w = 2 * n_max
        self.batch = B
        self.n_max = n_max

        def col(values) -> np.ndarray:
            return np.array([[float(v)] for v in values])

        # Per-lane scalar constants as (B, 1) broadcast columns.
        for attr in (
            "cdu_res_k", "cdu_q1", "valve_rangeability", "hx_ua",
            "pg_tref", "pg_drho", "pg_rho_ref", "pg_cp", "w_cp",
            "hot_mcp", "cold_mcp",
        ):
            setattr(self, attr, col(getattr(k, attr) for k in self.kernels))
        self.cdu_pump_rated = col(
            p.cdus.pumps.spec.rated_power_w for p in plants
        )
        self.cdu_pumps_running = col(p.cdus.pumps.n_running for p in plants)
        # Facility output constants: rated powers per lane, and lanes
        # grouped by unit count for the per-unit power vector sums.
        self.htwp_rated = [p.primary.pumps.spec.rated_power_w for p in plants]
        self.ctwp_rated = [p.tower.pumps.spec.rated_power_w for p in plants]
        self.cell_fan_w = [p.tower.farm.spec.fan_power_w for p in plants]
        htwps = [p.primary.pumps.spec.count for p in plants]
        ctwps = [p.tower.pumps.spec.count for p in plants]
        cells = [p.tower.farm.spec.total_cells for p in plants]
        self.cdu_groups = _lane_groups(k.n for k in self.kernels)
        self.htwp_groups = _lane_groups(htwps)
        self.ctwp_groups = _lane_groups(ctwps)
        self.cell_groups = _lane_groups(cells)
        self.unit_cols = np.arange(max(htwps + ctwps + cells))

        # cv_max is the one constant that must pad to *zero* columns:
        # the valve-flow expression multiplies an r**(x-1) factor that
        # is nonzero at x=0, and a zero cv_max is what keeps padded
        # primary flow (and hence demand and the return mix) at zero.
        self.cv_max = np.zeros((B, n_max))
        # PID bank constants: pads keep kp=ki=0, u_min=u_max=0, sign=1
        # so padded channels output exactly 0 every substep.
        self.kp50 = np.zeros((B, w))
        self.ki50 = np.zeros((B, w))
        self.umin50 = np.zeros((B, w))
        self.umax50 = np.zeros((B, w))
        self.sign50 = np.ones((B, w))
        for bi, k in enumerate(self.kernels):
            self.cv_max[bi, :k.n] = k.valve_cv_max
            for dst, src in (
                (self.kp50, k.kp50),
                (self.ki50, k.ki50),
                (self.umin50, k.umin50),
                (self.umax50, k.umax50),
                (self.sign50, k.sign50),
            ):
                self._put50(dst, bi, k.n, src)

        # Resident mutable state.  Pads are inert: blockage 1 and 25 °C
        # temperatures stay fixed points of the padded dynamics, flows
        # and heat stay zero (see module docstring).
        self.blockage = np.ones((B, n_max))
        self.sec_flow = np.zeros((B, n_max))
        self.pri_flow = np.zeros((B, n_max))
        self.hot_t = np.full((B, n_max), 25.0)
        self.cold_t = np.full((B, n_max), 25.0)
        self.hx_heat = np.zeros((B, n_max))
        self.pri_return = np.full((B, n_max), 25.0)
        self.heat = np.zeros((B, n_max))
        self.out50 = np.zeros((B, w))
        self.integ50 = np.zeros((B, w))
        self.preve50 = np.zeros((B, w))
        self.sp50 = np.zeros((B, w))
        self.meas50 = np.full((B, w), 25.0)
        # Valve draw at the (constant) header dp; sqrt is correctly
        # rounded, so math.sqrt == np.sqrt here.
        self.dp_term = col(
            sqrt(k.header_dp / k.valve_dp_rated) for k in self.kernels
        )
        self.htws_col = np.zeros((B, 1))
        self.rho_w_col = np.zeros((B, 1))

        # The one gather: each lane's freshly pulled fused mirror into
        # its batch row.
        for bi, k in enumerate(self.kernels):
            n = k.n
            self.blockage[bi, :n] = k.blockage
            self.sec_flow[bi, :n] = k.sec_flow
            self.pri_flow[bi, :n] = k.pri_flow
            self.hot_t[bi, :n] = k.hot_t
            self.cold_t[bi, :n] = k.cold_t
            self.hx_heat[bi, :n] = k.hx_heat
            self.pri_return[bi, :n] = k.pri_return
            self._put50(self.out50, bi, n, k.out50)
            self._put50(self.integ50, bi, n, k.integ50)
            self._put50(self.preve50, bi, n, k.preve50)
            self._put50(self.sp50, bi, n, k.sp50)

        # Scratch (one extra f-buffer vs the serial kernel: the batched
        # path materializes c_min_safe instead of a where() temporary).
        self.e50 = np.empty((B, w))
        self.c50a = np.empty((B, w))
        self.c50b = np.empty((B, w))
        self.m50a = np.empty((B, w), dtype=bool)
        self.m50b = np.empty((B, w), dtype=bool)
        self.m50c = np.empty((B, w), dtype=bool)
        self.b = [np.empty((B, n_max)) for _ in range(10)]
        self.mb = [np.empty((B, n_max), dtype=bool) for _ in range(3)]
        self.v1 = np.empty((B, n_max))
        self.v2 = np.empty((B, n_max))
        self.mv = np.empty((B, n_max), dtype=bool)

    # -- state exchange ----------------------------------------------------------

    def _put50(self, dst, bi: int, n: int, src) -> None:
        """Copy a lane's stacked ``(2n,)`` PID vector into row ``bi``."""
        n_max = self.n_max
        dst[bi, :n] = src[:n]
        dst[bi, n_max:n_max + n] = src[n:]

    def set_blockage(self, lane: int, cdu_index: int, severity: float) -> None:
        """Mirror a CDU blockage already set on lane ``lane``'s graph
        (:meth:`~repro.cooling.loops.cdu.CduLoopBank.set_blockage`
        validates it) into the resident row."""
        self.blockage[lane, cdu_index] = float(severity)

    def write_back(self) -> None:
        """Push every lane's resident state onto its component graph."""
        n_max = self.n_max
        for bi, (k, plant) in enumerate(zip(self.kernels, self.plants)):
            n = k.n
            k.sec_flow[:] = self.sec_flow[bi, :n]
            k.pri_flow[:] = self.pri_flow[bi, :n]
            k.hot_t[:] = self.hot_t[bi, :n]
            k.cold_t[:] = self.cold_t[bi, :n]
            k.hx_heat[:] = self.hx_heat[bi, :n]
            k.pri_return[:] = self.pri_return[bi, :n]
            for dst, src in (
                (k.out50, self.out50),
                (k.integ50, self.integ50),
                (k.preve50, self.preve50),
            ):
                dst[:n] = src[bi, :n]
                dst[n:] = src[bi, n_max:n_max + n]
            k.push(plant)

    # -- helpers -----------------------------------------------------------------

    def _advance_volume_bank(self, temp, t_in, flow, h, mass_cp, A) -> None:
        """Batched mirror of ``FusedPlantKernel._advance_volume_bank``."""
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
        _expm1(v2, out=v2)
        np.negative(v2, out=v2)  # relax
        np.subtract(t_in, temp, out=v1)
        np.multiply(v1, v2, out=v1)
        np.add(temp, v1, out=v1)
        np.copyto(temp, v1, where=mv)

    # -- the batched macro step --------------------------------------------------

    def advance(self, cdu_heat_w, wetbulb_c, h, n_sub: int, active=None) -> None:
        """Advance the first ``active`` lanes ``n_sub`` substeps of ``h``.

        ``cdu_heat_w`` is a per-lane sequence of ``(n_b,)`` heat arrays,
        ``wetbulb_c`` a per-lane sequence of floats.  Active lanes must
        be a batch prefix (the engine orders lanes longest-first so
        finished lanes drop off the tail and keep their rows untouched).
        """
        A = self.batch if active is None else int(active)
        if A == 0:
            return
        n_max = self.n_max
        kernels = self.kernels[:A]
        heat = self.heat[:A]
        for bi, k in enumerate(kernels):
            heat[bi, :k.n] = cdu_heat_w[bi]
            k.pump_has_prev = k.valve_has_prev = True
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
        pump_speed = out50[:, :n_max]
        valve_opening = out50[:, n_max:]
        kp50 = self.kp50[:A]
        ki50 = self.ki50[:A]
        umin50 = self.umin50[:A]
        umax50 = self.umax50[:A]
        sign50 = self.sign50[:A]
        cdu_res_k = self.cdu_res_k[:A]
        cdu_q1 = self.cdu_q1[:A]
        rangeability = self.valve_rangeability[:A]
        cv_max = self.cv_max[:A]
        hx_ua = self.hx_ua[:A]
        pg_tref = self.pg_tref[:A]
        pg_drho = self.pg_drho[:A]
        pg_rho_ref = self.pg_rho_ref[:A]
        pg_cp = self.pg_cp[:A]
        w_cp = self.w_cp[:A]
        mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
        npmax, npmin, add_reduce = np.maximum, np.minimum, np.add.reduce
        gt, lt, le, absolute = np.greater, np.less, np.less_equal, np.absolute
        clip, neg = np.clip, np.negative
        land, lor, lnot = np.logical_and, np.logical_or, np.logical_not
        copyto = np.copyto
        exp = _exp
        advance_bank = self._advance_volume_bank
        demands = [0.0] * A

        for _ in range(n_sub):
            # --- 1. CDU controls: the stacked pump-speed + valve PID bank.
            absolute(sec_flow, out=b0)
            mul(sec_flow, cdu_res_k, out=b1)
            mul(b1, b0, out=b1)
            mul(b1, blockage, out=b1)  # measured loop dp
            meas50[:, :n_max] = b1
            meas50[:, n_max:] = cold_t
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
            sub(valve_opening, 1.0, out=b0)
            _power(rangeability, b0, out=b0)
            mul(b0, cv_max, out=pri_flow)
            mul(pri_flow, dp_term, out=pri_flow)

            # --- 4-5. Primary tracking per lane; real-prefix row sums
            # keep the pairwise-summation tree identical to serial.
            for bi, k in enumerate(kernels):
                demand = float(add_reduce(pri_flow[bi, :k.n]))
                demands[bi] = demand
                k._primary_tracking(demand, h)

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
            # identical values — the serial kernel uses the same trick
            # for dead HX channels).
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
            for bi, k in enumerate(kernels):
                demand = demands[bi]
                if demand > 1e-9:
                    mix_c = float(add_reduce(b0[bi, :k.n]) / demand)
                else:
                    mix_c = k.p_return_t

                # --- 8-9. Primary + tower loop thermal (per-lane scalar).
                k._facility_thermal(mix_c, wetbulb_c[bi], h)

    # -- outputs -----------------------------------------------------------------

    def _unit_sums(self, groups, running, unit_w, A: int) -> np.ndarray:
        """Per-lane sums of the reference's per-unit power vectors:
        ``unit_w[b]`` on the first ``running[b]`` units, 0 elsewhere."""
        rows = np.where(
            self.unit_cols < np.array(running)[:, None],
            np.array(unit_w)[:, None],
            0.0,
        )
        return _row_sums(rows, groups, A)

    def cooling_records(self, system_power_w, active=None) -> list[dict]:
        """The engine's per-step cooling record for the first ``active``
        lanes, straight from the resident state.

        Exactly the ``DEFAULT_COOLING_RECORD`` fields of
        :meth:`CoolingPlant._snapshot
        <repro.cooling.plant.CoolingPlant._snapshot>` with
        ``system_power_w[b]`` as lane ``b``'s PUE denominator: the CDU
        fields as ``(A, n_max)`` ufunc passes sliced per lane, the
        facility fields from the per-lane kernel scalars with the
        reference's scalar arithmetic (pump and fan powers included),
        and the reference's vector sums as width-grouped row sums.
        Every call returns fresh arrays.
        """
        A = self.batch if active is None else int(active)
        n_max = self.n_max
        pump_w = self.out50[:A, :n_max].copy()
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
            n = k.n
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
                "cdu_primary_flow_m3s": pri_flow[bi, :n],
                "cdu_primary_return_temp_c": pri_return[bi, :n],
                "cdu_secondary_supply_temp_c": cold_t[bi, :n],
                "cdu_pump_power_w": pump_w[bi, :n],
            })

        # Facility aux power (HTWPs + CTWPs + fans) and PUE, elementwise
        # over lanes in the reference's operation order.
        aux_cep_w = self._unit_sums(self.htwp_groups, n_htwp, htwp_w, A)
        aux_cep_w += self._unit_sums(self.ctwp_groups, n_ctwp, ctwp_w, A)
        aux_cep_w += self._unit_sums(self.cell_groups, n_cells, fan_w, A)
        power = np.array(system_power_w, dtype=np.float64)
        pue = np.ones(A)
        np.divide(power + aux_cep_w, power, out=pue, where=power > 0)
        aux_w = aux_cep_w + _row_sums(pump_w, self.cdu_groups, A)
        for record, p, a in zip(records, pue.tolist(), aux_w.tolist()):
            record["pue"] = p
            record["aux_power_w"] = a
        return records


__all__ = ["BatchedPlantKernel"]
