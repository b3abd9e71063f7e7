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
it.  The facility half takes one of two forms, picked once from the lane
count (:data:`STACKED_MIN_LANES`): a narrow kernel keeps one small
record of Python floats per lane and steps the tower-control,
primary-tracking and facility-thermal sections lane by lane, and a wide
kernel stacks the same state as ``(B,)`` arrays and runs each section as
ufunc passes over the active lanes.  A plant stepped on its own is the
one-lane case.  One field table (:data:`_FIELDS`) names each facility
field once; both forms gather, write back and report from it.

Each way of stepping a plant picks one of three sync rules:

- **Sync every step.** :meth:`CoolingPlant.step
  <repro.cooling.plant.CoolingPlant.step>` (and so
  :meth:`CoolingFMU.do_step <repro.cooling.fmu.CoolingFMU.do_step>`)
  drives a one-lane kernel: :meth:`~BatchedPlantKernel.gather` pulls
  the component graph into the kernel,
  :meth:`~BatchedPlantKernel.advance` runs the substeps, and
  :meth:`~BatchedPlantKernel.write_back` pushes them back.
  Setpoint tuning, ``restore`` and CDU blockages on the graph therefore
  reach the next step.
- **Settle.** :func:`~repro.cooling.plant.settle` (a fused
  ``CoolingPlant.warmup``, and every cold plant of an engine's warmup
  at once) gathers its plants once, advances a fixed number of macro
  steps at fixed inputs, and writes back once.
- **Resident lanes.** The engines (the serial one with one lane, the
  batched one with B) gather every lane once, after warmup or a
  warm-cache restore, and keep its state in the kernel for the run.
  :meth:`~BatchedPlantKernel.cooling_records` returns each step's
  cooling record from that state as one column per field, a CDU
  blockage goes to the row as well as to the graph
  (:meth:`~BatchedPlantKernel.set_blockage`), and
  :meth:`~BatchedPlantKernel.write_back` syncs the graphs once when the
  run ends.

Every operation mirrors the reference's, in the same order, so the
kernel is *bit-identical* to the reference graph (kept as the oracle,
``CoolingPlant(backend="reference")``, and as the snapshot format):

- transcendentals go through the reference's NumPy ufuncs
  (``np.exp``/``np.expm1`` can differ from ``libm`` at the ULP level);
  plain Python floats serve only IEEE-exact operations (``+ - * /``,
  comparisons, ``sqrt``);
- every ``**`` on a facility float (``s**2``, ``fan**0.6``,
  ``loading**-0.4``) stays a Python-float pow, which calls ``libm`` as
  the reference's NumPy scalar pow does: the array ``np.power`` (and
  ``x * x``) differ from it at the ULP level, so the stacked form runs
  those terms lane by lane over ``.tolist()``;
- elementwise ufuncs are position-independent: the reference's
  ``(n,)`` op run as one row of a ``(B, n)`` op, with the same scalar
  operand, gives the same bits per element;
- every row of a C-contiguous ``(A, n)`` block is a contiguous ``(n,)``
  vector, so ``np.add.reduce(block, axis=1)`` sums each row with the
  pairwise-summation tree of the reference's own ``(n,)`` sum.
"""

from __future__ import annotations

from collections import Counter
from copy import copy
from functools import lru_cache
from math import ceil, sqrt
from operator import attrgetter, call
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.cooling.loops.primary import HEADER_STATIC_PA
from repro.exceptions import CoolingModelError

_exp = np.exp
_expm1 = np.expm1
# The ufunc ``np.clip`` dispatches to, called without its Python wrapper.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy < 2
    from numpy.core.umath import clip as _clip


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


def _fan_power(fan_w: float, cells: int, fan: float) -> float:
    """One cell's fan power: the reference's scalar arithmetic, with
    ``fan**3`` a Python-float pow."""
    fan = 0.0 if fan < 0.0 else (1.0 if fan > 1.0 else fan)
    return cells * fan_w * max(fan**3, 0.02) / cells if cells else 0.0


def _unit_sums(cols, running, unit_w) -> np.ndarray:
    """Per-lane sums of the reference's per-unit power vectors:
    ``unit_w[b]`` on the first ``running[b]`` of ``cols`` units, 0
    elsewhere."""
    rows = np.where(cols < running[:, None], np.array(unit_w)[:, None], 0.0)
    return np.add.reduce(rows, axis=1)


#: A :class:`PidController`'s gains, output bounds and sign.
_PID_GAINS = ("kp", "ki", "kd", "u_min", "u_max", "sign")


class _ScalarPid:
    """A width-1 :class:`PidController` as Python floats.

    Lanes hold shallow copies of one instance built from the first
    plant, so the gains are shared; the facility field table syncs the
    state (``integral``, ``prev_error``, ``has_prev``, ``output``).
    """

    __slots__ = (*_PID_GAINS, "integral", "prev_error", "has_prev", "output")

    def __init__(self, pid) -> None:
        for name in _PID_GAINS:
            setattr(self, name, getattr(pid, name))

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


# -- the facility field table ----------------------------------------------------


def _optional_float(value):
    return None if value is None else float(value)


_ARRAY, _OPTIONAL = np.ndarray.item, _optional_float


class _Field(NamedTuple):
    """One primary/tower field: its graph path on the plant, its slot on
    a :class:`_ScalarFacility` lane record, its ``(array, row)`` place
    in :class:`_StackedFacility` (row ``None``: a ``(B,)`` array), and
    its type on the graph as the reader that makes it a Python scalar:
    ``float``, ``int``, ``bool``, :data:`_ARRAY` (a 1-element float
    array; ``item`` also checks the size) or :data:`_OPTIONAL` (a float
    that is ``None`` before the first substep)."""

    path: str
    slot: str
    place: tuple
    kind: object


#: The primary/tower state a kernel owns; both facility forms gather,
#: write back and report from it.
_SYNCED = (
    _Field("primary.pumps.n_running", "p_n_running", ("p_n_running", None), int),
    _Field("primary.n_ehx", "p_n_ehx", ("n_ehx", None), int),
    _Field("primary.supply.temp_c", "p_supply_t", ("temp", 1), _ARRAY),
    _Field("primary.return_.temp_c", "p_return_t", ("temp", 0), _ARRAY),
    _Field("primary.pump_speed", "p_pump_speed", ("sig", 3), float),
    _Field("primary.total_flow", "p_total_flow", ("flow", 0), float),
    _Field("primary.ehx_heat_w", "p_ehx_heat", ("ehx_heat", None), float),
    _Field("tower.pumps.n_running", "t_n_running", ("t_n_running", None), int),
    _Field("tower.supply.temp_c", "t_supply_t", ("temp", 3), _ARRAY),
    _Field("tower.return_.temp_c", "t_return_t", ("temp", 2), _ARRAY),
    _Field("tower.pump_speed", "t_pump_speed", ("sig", 1), float),
    _Field("tower.total_flow", "t_total_flow", ("flow", 1), float),
    _Field("tower.fan_speed", "t_fan_speed", ("sig", 0), float),
    _Field("tower.htws_delay.y", "delay_y", ("sig", 2), float),
    _Field("tower._prev_htws_c", "prev_htws", ("prev_htws", None), _OPTIONAL),
    # The tower's two width-1 PIDs (stacked rows 0 and 1).
    *(
        _Field(f"tower.{pid}.{attr}", f"{pid}.{slot}", (array, row), kind)
        for row, pid in enumerate(("fan_pid", "speed_pid"))
        for attr, slot, array, kind in (
            ("_integral", "integral", "pid_integ", _ARRAY),
            ("_prev_error", "prev_error", "pid_prev", _ARRAY),
            ("_has_prev", "has_prev", "pid_has_prev", bool),
            ("output", "output", "pid_out", _ARRAY),
        )
    ),
    # The three staging controllers (stacked rows: CTWPs, cells, HTWPs).
    *(
        _Field(f"{path}.{attr}", f"{slot}.{attr}", (array, row), kind)
        for path, slot, row in (
            ("primary.pump_staging", "p_stage", 2),
            ("tower.pump_staging", "t_stage", 0),
            ("tower.cell_staging", "cell_stage", 1),
        )
        for attr, array, kind in (
            ("count", "counts", int),
            ("_above_s", "above", float),
            ("_below_s", "below", float),
        )
    ),
)
#: With the setpoints, which are gathered and never written back.
_FIELDS = _SYNCED + (
    _Field("primary.supply_setpoint_c", "p_supply_sp", ("pid_sp", 0), float),
    _Field("tower.pressure_setpoint_pa", "t_press_sp", ("pid_sp", 1), float),
)
_PREV_HTWS = next(i for i, f in enumerate(_SYNCED) if f.kind is _OPTIONAL)

#: The ``columns(A)`` outputs in order, named by their fields' slots
#: (``cooling_records`` reads them by name).
_COLUMNS = (
    "p_n_running", "p_pump_speed", "p_total_flow", "t_n_running",
    "t_pump_speed", "cell_stage.count", "t_fan_speed", "p_supply_t",
    "p_return_t", "t_supply_t", "p_n_ehx",
)
_COLUMN_FIELDS = [f for s in _COLUMNS for f in _FIELDS if f.slot == s]

_graph_values = attrgetter(*(f.path for f in _FIELDS))
_graph_readers = tuple(f.kind for f in _FIELDS)
_graph_owners = attrgetter(*(f.path.rpartition(".")[0] for f in _SYNCED))
_graph_names = tuple(f.path.rpartition(".")[2] for f in _SYNCED)
_graph_arrays = [i for i, f in enumerate(_SYNCED) if f.kind is _ARRAY]


def _read_graph(plant):
    """``plant``'s facility fields, in table order, as Python scalars
    (an iterator)."""
    return map(call, _graph_readers, _graph_values(plant))


def _write_graph(plant, values: list) -> None:
    """Set ``plant``'s synced facility fields from Python scalars in
    table order (``values`` is consumed: its arrays are built in place)."""
    for i in _graph_arrays:
        values[i] = np.array([values[i]])
    for _ in map(setattr, _graph_owners(plant), _graph_names, values):
        pass


class _Facility:
    """The facility half of a kernel: the primary and tower loops.

    Holds the facility constants, derived once from the first plant,
    and defines the interface both forms implement:

    - ``gather(bi, plant)`` / ``write_back(bi, plant)`` sync lane
      ``bi``'s facility state with ``plant``'s component graph, field
      by field over :data:`_FIELDS`;
    - ``bind(A, wetbulb_c, h)`` readies one macro step of the first
      ``A`` lanes and returns the HTW supply temperature and density
      columns (``(A, 1)``) that the CDU thermal section reads;
    - ``tower_controls(h)`` (substep section 2), ``primary_tracking(
      demands, h)`` (sections 4-5) and ``thermal(mixes, demands, h)``
      (sections 7-9) step the bound lanes, with ``demands`` and
      ``mixes`` the per-lane CDU primary-flow and flow-weighted return
      sums as ``(A,)`` arrays;
    - ``columns(A)`` returns the :data:`_COLUMNS` fields, in order, as
      ``(A,)`` arrays (counts as int64).
    """

    def __init__(self, plant) -> None:
        primary, tower = plant.primary, plant.tower
        if tower.fan_pid.width != 1 or tower.speed_pid.width != 1:
            raise CoolingModelError("scalar PID needs width 1")
        # --- facility water constants ----------------------------------------
        water = primary.supply.fluid
        self.w_rho_ref = water.rho_ref_kg_m3
        self.w_drho = water.drho_dt
        self.w_tref = water.t_ref_c
        self.w_cp = water.cp_j_kg_c

        # --- primary-loop constants ------------------------------------------
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

        # --- tower-loop constants --------------------------------------------
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

        # --- facility output constants ---------------------------------------
        # Rated powers, and the unit columns of the per-unit power vectors.
        self.htwp_rated = primary.pumps.spec.rated_power_w
        self.ctwp_rated = tower.pumps.spec.rated_power_w
        self.cell_fan_w = farm.spec.fan_power_w
        self.htwp_cols = np.arange(self.p_count)
        self.ctwp_cols = np.arange(tower.pumps.spec.count)
        self.cell_cols = np.arange(farm.spec.total_cells)

    def alpha_for(self, h: float) -> float:
        """The HTWS delay filter coefficient for substep ``h`` (memoized)."""
        if self._alpha_h != h:
            self._alpha = 1.0 - float(_exp(-h / self.delay_tau))
            self._alpha_h = h
        return self._alpha


class _LaneState:
    """One lane's facility state in the scalar form, a slot per
    :data:`_FIELDS` slot owner: the primary (``p_``) and tower (``t_``)
    loop scalars, the tower's two scalar PIDs, and shallow copies of the
    plant's three :class:`~repro.cooling.control.staging.StagingController`
    objects (HTWPs, CTWPs, cells)."""

    __slots__ = tuple(dict.fromkeys(f.slot.partition(".")[0] for f in _FIELDS))

    def __init__(self, fan_pid, speed_pid, p_stage, t_stage, cell_stage):
        self.fan_pid = copy(fan_pid)
        self.speed_pid = copy(speed_pid)
        self.p_stage = copy(p_stage)
        self.t_stage = copy(t_stage)
        self.cell_stage = copy(cell_stage)


# A slot is on the lane record itself, or ``owner.name`` on one of its
# PIDs or staging controllers.
_slot_owners = [f.slot.rpartition(".")[0] for f in _FIELDS]
_slot_names = [f.slot.rpartition(".")[2] for f in _FIELDS]
_slot_values = attrgetter(*(f.slot for f in _SYNCED))
_column_values = attrgetter(*_COLUMNS)


class _ScalarFacility(_Facility):
    """The narrow form: one :class:`_LaneState` of Python floats per
    lane, stepped lane by lane (a ``(B,)`` ufunc call costs more than a
    few lanes of float arithmetic)."""

    def __init__(self, plant, B: int) -> None:
        super().__init__(plant)
        primary, tower = plant.primary, plant.tower
        controllers = (
            _ScalarPid(tower.fan_pid), _ScalarPid(tower.speed_pid),
            primary.pump_staging, tower.pump_staging, tower.cell_staging,
        )
        self.lanes = [_LaneState(*controllers) for _ in range(B)]
        # The object that holds each field's slot, per lane.
        self.owners = [
            [getattr(f, o) if o else f for o in _slot_owners]
            for f in self.lanes
        ]
        self.htws_col = np.empty((B, 1))
        self.rho_w_col = np.empty((B, 1))

    def gather(self, bi: int, plant) -> None:
        values = _read_graph(plant)
        for _ in map(setattr, self.owners[bi], _slot_names, values):
            pass

    def write_back(self, bi: int, plant) -> None:
        _write_graph(plant, list(_slot_values(self.lanes[bi])))

    def bind(self, A: int, wetbulb_c, h: float):
        self.active = self.lanes[:A]
        self.wetbulb = wetbulb_c
        self.alpha = self.alpha_for(h)
        return self.htws_col[:A], self.rho_w_col[:A]

    def columns(self, A: int):
        # One array build, not eleven; the counts are exact as floats.
        block = np.array(list(map(_column_values, self.lanes[:A]))).T
        return [
            row.astype(np.int64) if f.kind is int else row
            for row, f in zip(block, _COLUMN_FIELDS)
        ]

    # -- helpers (one lane, Python floats) ------------------------------------

    def _volume(self, temp, t_in, flow, h, mass_cp):
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

    # -- substep sections -----------------------------------------------------

    def tower_controls(self, h: float) -> None:
        """Substep section 2: tower fan/pump/cell controls, and the HTW
        supply temperature and density columns."""
        alpha = self.alpha
        htws_col, rho_w_col = self.htws_col, self.rho_w_col
        w_rho_ref, w_drho, w_tref = self.w_rho_ref, self.w_drho, self.w_tref
        for bi, f in enumerate(self.active):
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
            htws_col[bi, 0] = htws
            rho_w_col[bi, 0] = w_rho_ref + w_drho * (htws - w_tref)

    def primary_tracking(self, demands, h: float) -> None:
        """Substep sections 4-5: primary speed/flow/staging + EHX staging."""
        for f, demand in zip(self.active, demands.tolist()):
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
            f.p_n_ehx = (
                1 if m < 1 else (self.p_num_ehx if m > self.p_num_ehx else m)
            )

    def thermal(self, mixes, demands, h: float) -> None:
        """Substep sections 7-9: the CDU return mix, then the primary and
        tower thermal advance."""
        volume = self._volume
        for f, mix, demand, wetbulb_c in zip(
            self.active, mixes.tolist(), demands.tolist(), self.wetbulb
        ):
            mix_c = mix / demand if demand > 1e-9 else f.p_return_t
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


class _StackedFacility(_Facility):
    """The wide form: the same facility state as ``(B,)`` arrays, each
    section one pass of ufunc calls over the active lanes.

    Every ufunc is elementwise, so each lane sees the scalar form's
    operations in the scalar form's order, and no value crosses lanes.
    Rows group like state (each field's place is in :data:`_FIELDS`)
    so that one call serves several quantities:

    - ``sig`` rows ``[0:2]`` are the two PIDs' outputs and ``[1:4]`` the
      three staging controllers' signals;
    - the staging rows all update in section 4-5.  The scalar form
      updates the cell and CTWP controllers in section 2; nothing reads
      their counts or timers before section 4-5, and their signals do
      not change in between, so all three update there in one pass;
    - the four ``temp`` volumes' relax factors depend only on each
      volume's pre-substep temperature and flow, so one ``expm1``
      serves them all.

    Counts index lookup tables built with the scalar form's own
    arithmetic (pump-curve denominators, HTWP capacity, EHXs per cell
    count).  Scalar operands are 0-d arrays, which a ufunc call takes
    without converting a Python float each time (3-6 % of a stacked
    advance, measured at B = 16 and 64).
    """

    def __init__(self, plant, B: int) -> None:
        super().__init__(plant)
        tower = plant.tower

        def controllers(array):
            # The graph objects behind an array's rows, in row order.
            rows = sorted(
                (f.place[1], f.path.rpartition(".")[0])
                for f in _FIELDS if f.place[0] == array
            )
            return [attrgetter(path)(plant) for _, path in rows]

        pids, stages = controllers("pid_integ"), controllers("counts")

        def column(objs, attr, dtype=np.float64):
            values = [getattr(o, attr) for o in objs]
            return np.array(values, dtype=dtype)[:, None]

        (self.pid_kp, self.pid_ki, self.pid_kd, self.pid_umin,
         self.pid_umax, self.pid_sign) = (column(pids, a) for a in _PID_GAINS)
        self.kd_zero = self.pid_kd == 0.0
        self.st_hi, self.st_lo, self.st_up, self.st_down = (
            column(stages, a)
            for a in ("hi", "lo", "up_delay_s", "down_delay_s")
        )
        self.st_nmin = column(stages, "n_min", np.int64)
        self.st_nmax = column(stages, "n_max", np.int64)
        # Tables by staged count.  A count of 0 gives a speed of 0 (the
        # primary denominator 0.0) and a flow of 0 (the tower one inf).
        self.p_denom = np.array([0.0] + [
            self.p_kp / m**2 + self.p_res_k for m in range(1, self.p_count + 1)
        ])
        self.t_denom = np.array([np.inf] + [
            self.t_kp / m**2 + self.t_res_k
            for m in range(1, tower.pumps.spec.count + 1)
        ])
        self.qcap = np.array(self.p_qcap)
        per_tower = max(self.cells_per_tower, 1)
        ehx = []
        for cells in range(tower.farm.spec.total_cells + 1):
            m = ceil(cells / per_tower)
            ehx.append(
                1 if m < 1 else (self.p_num_ehx if m > self.p_num_ehx else m)
            )
        self.ehx_count = np.array(ehx, dtype=np.int64)
        self.mcp = np.array([self.p_mcp, self.t_mcp])[:, None, None]
        self.c = SimpleNamespace(**{
            name: np.array(getattr(self, name)) for name in (
                "w_rho_ref", "w_drho", "w_tref", "w_cp", "t_res_k", "t_h0",
                "p_h0", "p_min_speed", "ehx_ua", "farm_design_flow",
            )
        })

        # --- resident state --------------------------------------------------
        # An array per place in the field table, holding each field's
        # (B,) row; ``temp3`` is ``temp`` as ``[loop, volume]``.
        self.state = Counter(array for array, _ in (f.place for f in _FIELDS))
        for f in _FIELDS:
            array, row = f.place
            if row in (None, 0):  # the place's first field allocates it
                dtype = {int: np.int64, bool: bool}.get(f.kind, np.float64)
                shape = B if row is None else (self.state[array], B)
                setattr(self, array, np.zeros(shape, dtype=dtype))
        self.rows = [
            getattr(self, array) if row is None else getattr(self, array)[row]
            for array, row in (f.place for f in _FIELDS)
        ]
        self.column_rows = [self.rows[_FIELDS.index(f)] for f in _COLUMN_FIELDS]
        self.temp3 = self.temp.reshape(2, 2, B)
        # The tower's previous HTWS reading (``prev_htws``) is ``None``
        # on the graph of a lane never stepped: ``htws_seen`` False.
        self.htws_seen = np.zeros(B, dtype=bool)
        self.rho_w = np.empty(B)

        # Scratch, sized once.
        self.x = [np.empty(B) for _ in range(8)]
        self.x2 = [np.empty((2, B)) for _ in range(5)]
        self.relax3 = np.empty((2, 2, B))
        self.relax = self.relax3.reshape(4, B)
        self.m = [np.empty(B, dtype=bool) for _ in range(3)]
        self.m2 = [np.empty((2, B), dtype=bool) for _ in range(3)]
        self.m3 = [np.empty((3, B), dtype=bool) for _ in range(3)]
        self.ci = np.empty(B, dtype=np.int64)

    def gather(self, bi: int, plant) -> None:
        values = list(_read_graph(plant))
        prev = values[_PREV_HTWS]
        self.htws_seen[bi] = prev is not None
        if prev is None:
            values[_PREV_HTWS] = 0.0
        for row, value in zip(self.rows, values):
            row[bi] = value

    def write_back(self, bi: int, plant) -> None:
        values = [row.item(bi) for row in self.rows[:len(_SYNCED)]]
        if not self.htws_seen[bi]:
            values[_PREV_HTWS] = None
        _write_graph(plant, values)

    def bind(self, A: int, wetbulb_c, h: float):
        # A lane's first substep reads its previous HTWS as the current
        # one, and runs the fan PID without a derivative term.
        seen = self.htws_seen[:A]
        if not seen.all():
            np.copyto(self.prev_htws[:A], self.temp[1, :A], where=~seen)
            seen[:] = True
        self.no_d = self.kd_zero | ~self.pid_has_prev[:, :A]
        self.pid_has_prev[:, :A] = True
        self.h = np.array(h)
        self.neg_h = np.array(-h)
        self.alpha = np.array(self.alpha_for(h))
        # The active prefix of every array a section touches, sliced
        # once per macro step.
        self.v = SimpleNamespace(
            wetbulb=np.array(wetbulb_c[:A], dtype=np.float64),
            temp3=self.temp3[:, :, :A], relax3=self.relax3[:, :, :A],
            x=[a[:A] for a in self.x], x2=[a[:, :A] for a in self.x2],
            m=[a[:A] for a in self.m], m2=[a[:, :A] for a in self.m2],
            m3=[a[:, :A] for a in self.m3],
            **{
                name: getattr(self, name)[..., :A]
                for name in (*self.state, "rho_w", "relax", "ci")
            },
        )
        return self.temp[1, :A, None], self.rho_w[:A, None]

    def columns(self, A: int):
        return [row[:A] for row in self.column_rows]

    # -- substep sections -----------------------------------------------------

    def tower_controls(self, h: float) -> None:
        """Substep section 2 over the bound lanes (see
        :meth:`_ScalarFacility.tower_controls`)."""
        sub, mul, add, div = np.subtract, np.multiply, np.add, np.divide
        copyto, land = np.copyto, np.logical_and
        v, c, h = self.v, self.c, self.h
        g, y = v.x[:2]
        e, d, cand, u, meas = v.x2
        ma, mb, mc = v.m2
        pid_sp, pid_integ, pid_prev = v.pid_sp, v.pid_integ, v.pid_prev
        prev, t_n, rho = v.prev_htws, v.t_n_running, v.rho_w
        htws, delay, q, out = v.temp[1], v.sig[2], v.flow[1], v.sig[0:2]

        # The HTWS gradient feeds the delay filter.
        sub(htws, prev, out=g)
        div(g, h, out=g)
        mul(g, _60, out=g)
        copyto(prev, htws)
        mul(g, _2, out=g)
        sub(htws, pid_sp[0], out=y)  # HTWS error
        add(y, g, out=g)
        sub(g, delay, out=g)
        mul(g, self.alpha, out=g)
        add(delay, g, out=delay)

        # Both PIDs in one pass: the fan on the HTWS, the CTWPs on the
        # header dp.
        copyto(meas[0], htws)
        np.absolute(q, out=y)
        mul(q, c.t_res_k, out=meas[1])
        mul(meas[1], y, out=meas[1])
        sub(pid_sp, meas, out=e)
        mul(e, self.pid_sign, out=e)
        sub(e, pid_prev, out=d)
        mul(d, self.pid_kd, out=d)
        div(d, h, out=d)
        copyto(d, _0, where=self.no_d)
        self.no_d = self.kd_zero
        mul(e, h, out=cand)
        add(pid_integ, cand, out=cand)
        mul(self.pid_kp, e, out=u)
        mul(self.pid_ki, cand, out=meas)
        add(u, meas, out=u)
        add(u, d, out=u)  # unclamped outputs
        _clip(u, self.pid_umin, self.pid_umax, out=out)
        np.greater(u, self.pid_umax, out=ma)
        np.greater(e, _0, out=mb)
        land(ma, mb, out=ma)
        np.less(u, self.pid_umin, out=mb)
        np.less(e, _0, out=mc)
        land(mb, mc, out=mb)
        np.logical_or(ma, mb, out=ma)
        np.logical_not(ma, out=ma)  # integrator keep mask
        copyto(pid_integ, cand, where=ma)
        copyto(pid_prev, e)
        copyto(v.pid_out, out)

        # CTW flow at the new speed with the CTWPs staged before it.
        copyto(t_n, v.counts[0])
        _clip(out[1], _0, _1, out=g)
        g[:] = [s**2 for s in g.tolist()]
        mul(g, c.t_h0, out=g)
        div(g, self.t_denom[t_n], out=g)
        np.sqrt(g, out=q)

        sub(htws, c.w_tref, out=rho)
        mul(rho, c.w_drho, out=rho)
        add(rho, c.w_rho_ref, out=rho)

    def primary_tracking(self, demands, h: float) -> None:
        """Substep sections 4-5 over the bound lanes, with all three
        staging controllers' updates (see the class docstring)."""
        mul, add, copyto = np.multiply, np.add, np.copyto
        v = self.v
        x, p_n, sig, counts = v.x[0], v.p_n_running, v.sig, v.counts
        above, below = v.above, v.below
        up, down, ok = v.m3
        speed = sig[3]
        copyto(p_n, counts[2])
        x[:] = [d**2 for d in demands.tolist()]
        mul(x, self.p_denom[p_n], out=x)
        np.divide(x, self.c.p_h0, out=x)
        np.sqrt(x, out=speed)
        np.minimum(speed, _1, out=speed)
        np.maximum(speed, self.c.p_min_speed, out=speed)
        np.minimum(demands, self.qcap[p_n], out=v.flow[0])

        # Staging: CTWPs, cells, HTWPs.
        np.greater(sig[1:4], self.st_hi, out=up)
        np.less(sig[1:4], self.st_lo, out=down)
        add(above, self.h, out=above)
        mul(above, up, out=above)
        add(below, self.h, out=below)
        mul(below, down, out=below)
        np.greater_equal(above, self.st_up, out=up)
        np.less(counts, self.st_nmax, out=ok)
        np.logical_and(up, ok, out=up)  # stage up
        np.greater_equal(below, self.st_down, out=down)
        np.greater(counts, self.st_nmin, out=ok)
        np.logical_and(down, ok, out=down)
        np.greater(down, up, out=down)  # stage down, unless staging up
        add(counts, up, out=counts)
        np.subtract(counts, down, out=counts)
        copyto(above, _0, where=up)
        copyto(below, _0, where=down)
        v.n_ehx[:] = self.ehx_count[counts[1]]

    def thermal(self, mixes, demands, h: float) -> None:
        """Substep sections 7-9 over the bound lanes (see
        :meth:`_ScalarFacility.thermal`)."""
        sub, mul, add, div = np.subtract, np.multiply, np.add, np.divide
        npmax, npmin, copyto = np.maximum, np.minimum, np.copyto
        v = self.v
        temp, flow, relax, r3 = v.temp, v.flow, v.relax, v.relax3
        x0, x1, x2, x3, x4, x5, x6, x7 = v.x
        c, z, outs, y2 = v.x2[:4]
        m0, m1, m2 = v.m
        flowing, hot = v.m2[:2]
        w_rho_ref, w_drho, w_tref, w_cp = (
            self.c.w_rho_ref, self.c.w_drho, self.c.w_tref, self.c.w_cp
        )

        def volume(t, t_in, r, moving, scratch):
            sub(t_in, t, out=scratch)
            mul(scratch, r, out=scratch)
            add(t, scratch, out=scratch)
            copyto(t, scratch, where=moving)

        # --- 7. The CDU return mix into the HTW header.
        np.greater(demands, _1E_9, out=m0)
        copyto(x0, temp[0])
        div(mixes, demands, out=x0, where=m0)

        # --- 8-9. The four volumes' relax factors, from their
        # pre-substep temperatures and flows.
        sub(v.temp3, w_tref, out=r3)
        mul(r3, w_drho, out=r3)
        add(r3, w_rho_ref, out=r3)
        mul(r3, flow[:, None, :], out=r3)
        mul(r3, w_cp, out=r3)
        npmax(r3, _1E_12, out=r3)
        div(self.mcp, r3, out=r3)  # tau
        div(self.neg_h, r3, out=r3)
        np.expm1(r3, out=r3)
        np.negative(r3, out=r3)
        np.greater(flow, _1E_9, out=flowing)

        volume(temp[0], x0, relax[0], flowing[0], x1)  # primary return
        # The EHX bank: primary return (hot) against tower supply (cold).
        ends = temp[::3]
        sub(ends, w_tref, out=c)
        mul(c, w_drho, out=c)
        add(c, w_rho_ref, out=c)
        mul(c, flow, out=c)
        mul(c, w_cp, out=c)  # c_hot, c_cold
        c_min, c_max, cr, ntu, e, den, eps = x1, x2, x3, x4, x5, x6, x7
        npmin(c[0], c[1], out=c_min)
        npmax(c[0], c[1], out=c_max)
        np.less_equal(c_min, _1E_9, out=m1)  # dead lanes
        npmax(c_max, _1E_12, out=cr)
        div(c_min, cr, out=cr)
        copyto(cr, _0, where=m1)
        copyto(c_max, c_min)
        copyto(c_max, _1, where=m1)  # c_min_safe
        mul(v.n_ehx, self.c.ehx_ua, out=ntu)
        div(ntu, c_max, out=ntu)
        sub(_1, cr, out=c_max)  # 1 - cr
        mul(ntu, c_max, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        mul(cr, e, out=den)
        sub(_1, den, out=den)
        npmax(den, _1E_12, out=den)
        sub(_1, e, out=eps)
        div(eps, den, out=eps)  # general effectiveness
        np.absolute(c_max, out=den)
        np.less(den, _1E_6, out=m2)  # near-unity Cr
        add(ntu, _1, out=den)
        div(ntu, den, out=den)  # balanced effectiveness
        copyto(eps, den, where=m2)
        _clip(eps, _0, _1, out=eps)
        copyto(eps, _0, where=m1)
        q = v.ehx_heat
        mul(eps, c_min, out=q)
        sub(ends[0], ends[1], out=den)
        mul(q, den, out=q)
        npmax(c, _1E_12, out=z)
        div(q, z, out=z)
        sub(ends[0], z[0], out=z[0])  # hot outlet
        add(ends[1], z[1], out=z[1])  # cold outlet
        np.greater(c, _1E_9, out=hot)
        copyto(outs, ends)
        copyto(outs, z, where=hot)
        # Primary supply and tower return take the EHX outlets.
        volume(temp[1:3], outs, relax[1:3], flowing, y2)

        # The tower farm's outlet from the new tower return.
        t_in, t_flow, cells = temp[2], flow[1], v.counts[1]
        npmax(cells, _ONE_CELL, out=v.ci)
        div(t_flow, v.ci, out=x1)
        div(x1, self.c.farm_design_flow, out=x1)
        npmax(x1, _1E_3, out=x1)  # loading
        _clip(v.sig[0], _0, _1, out=x2)  # fan
        eff = self.farm_eff
        x3[:] = [
            eff * max(fan**0.6, 0.15) * loading**-0.4
            for fan, loading in zip(x2.tolist(), x1.tolist())
        ]
        _clip(x3, _0, _0_98, out=x3)
        sub(t_in, v.wetbulb, out=x4)
        mul(x3, x4, out=x4)
        sub(t_in, x4, out=x4)
        np.not_equal(cells, _NO_CELLS, out=m0)
        np.not_equal(t_flow, _0, out=m1)
        np.logical_and(m0, m1, out=m0)
        copyto(x5, t_in)
        copyto(x5, x4, where=m0)
        volume(temp[3], x5, relax[3], flowing[1], x6)  # tower supply


# 0-d operands of the stacked facility's ufunc calls.
_0, _1, _2, _60 = (np.array(v) for v in (0.0, 1.0, 2.0, 60.0))
_0_98, _1E_3, _1E_6, _1E_9, _1E_12 = (
    np.array(v) for v in (0.98, 1e-3, 1e-6, 1e-9, 1e-12)
)
_NO_CELLS, _ONE_CELL = np.array(0), np.array(1)


#: Lane count from which a kernel stacks its facility state: the
#: crossover of the two forms' cost per lane-step.  A stacked substep
#: is about 150 ufunc calls whatever the width; the per-lane floats cost
#: a fixed amount per lane.  Measured on a shared 2-core AVX-512 VM
#: (NumPy 2.4, Setonix plants, both forms interleaved in one process),
#: stacked over scalar: 1.21 at B = 12, 1.06 at 16, 0.95-0.99 at 18,
#: 0.84 at 24 and about 0.5 at 64.
STACKED_MIN_LANES = 18


class BatchedPlantKernel:
    """Advance B cooling plants per NumPy call, bit-identical per lane.

    ``plants`` are the per-lane :class:`~repro.cooling.plant.CoolingPlant`
    objects (any backend) of one system: one ``CoolingSpec``, else
    :class:`~repro.exceptions.CoolingModelError`.  The kernel derives
    every constant once from the first plant, picks its facility form
    from the lane count (stacked from :data:`STACKED_MIN_LANES` lanes)
    and gathers every lane; from then on the kernel holds the state,
    and a plant's component graph is stale until :meth:`write_back`
    (see the module docstring for when each caller syncs).  The kernel
    keeps no reference to the plants, so a plant can own its one-lane
    kernel without a reference cycle.
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
        cdus = first.cdus
        B = len(plants)
        n = cdus.n
        w = 2 * n
        self.batch = B
        self.n = n

        # --- CDU-bank constants ----------------------------------------------
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

        # --- resident mutable state ------------------------------------------
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
        # The two CDU PIDs' ``_has_prev`` flags per lane (pump, valve).
        self.has_prev = np.zeros((B, 2), dtype=bool)
        form = _StackedFacility if B >= STACKED_MIN_LANES else _ScalarFacility
        self.facility = form(first, B)
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

    # -- state exchange -------------------------------------------------------

    def gather(self, bi: int, plant) -> None:
        """Pull lane ``bi``'s component graph (``plant``'s) into its
        batch row and its facility lane: the state, the setpoints and
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

        self.facility.gather(bi, plant)

    def set_blockage(self, lane: int, cdu_index: int, severity: float) -> None:
        """Mirror a CDU blockage already set on lane ``lane``'s graph
        (:meth:`~repro.cooling.loops.cdu.CduLoopBank.set_blockage`
        validates it) into the resident row."""
        self.blockage[lane, cdu_index] = float(severity)

    def write_back(self, plants) -> None:
        """Push every lane's resident state onto its component graph
        (``plants`` in lane order)."""
        n = self.n
        for bi, plant in enumerate(plants):
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

            self.facility.write_back(bi, plant)

    # -- helpers --------------------------------------------------------------

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

    # -- the batched macro step -----------------------------------------------

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
        facility = self.facility
        heat = self.heat[:A]
        for bi in range(A):
            heat[bi] = cdu_heat_w[bi]
        self.has_prev[:A] = True
        htws_col, rho_w_col = facility.bind(A, wetbulb_c, h)

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
        pump_speed = out50[:, :n]
        valve_opening = out50[:, n:]
        kp50, ki50, sign50 = self.kp50, self.ki50, self.sign50
        umin50, umax50 = self.umin50, self.umax50
        pg_tref, pg_drho = self.pg_tref, self.pg_drho
        pg_rho_ref, pg_cp = self.pg_rho_ref, self.pg_cp
        w_cp = facility.w_cp
        hot_mcp, cold_mcp = self.hot_mcp, self.cold_mcp
        tower_controls = facility.tower_controls
        primary_tracking = facility.primary_tracking
        facility_thermal = facility.thermal
        # Ufunc locals: the loop below issues a few hundred tiny calls
        # per macro step, so attribute lookups are measurable.
        mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
        npmax, npmin, add_reduce = np.maximum, np.minimum, np.add.reduce
        gt, lt, le, absolute = np.greater, np.less, np.less_equal, np.absolute
        clip, neg = _clip, np.negative
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

            # --- 2. Tower controls, and the HTW supply temperature and
            # density columns.
            tower_controls(h)

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

            # --- 4-5. Primary tracking; each row of the contiguous block
            # sums with the reference's pairwise tree.
            demands = add_reduce(pri_flow, axis=1)
            primary_tracking(demands, h)

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

            # --- 7-9. Flow-weighted CDU return mix into the HTW header,
            # then the primary + tower loop thermal advance.
            mul(pri_flow, pri_return, out=b0)
            facility_thermal(add_reduce(b0, axis=1), demands, h)

    # -- outputs --------------------------------------------------------------

    def cooling_records(self, system_power_w, active=None) -> dict:
        """The engine's per-step cooling record for the first ``active``
        lanes, as columns straight from the resident state.

        Exactly the ``DEFAULT_COOLING_RECORD`` fields of
        :meth:`CoolingPlant._snapshot
        <repro.cooling.plant.CoolingPlant._snapshot>` with
        ``system_power_w[b]`` as lane ``b``'s PUE denominator, one
        ``(A,)`` or ``(A, n)`` array per field, valid until the next
        :meth:`advance`: the CDU fields as ``(A, n)`` ufunc passes, the
        facility fields from the form's columns with the reference's
        scalar arithmetic elementwise (the pump and fan pows per lane),
        and the reference's vector sums as one row reduce per quantity.
        """
        A = self.batch if active is None else int(active)
        pump_w = self.out50[:A, :self.n].copy()
        if np.any(pump_w < 0) or np.any(pump_w > 1.2):
            raise CoolingModelError("pump speed out of range [0, 1.2]")
        np.power(pump_w, 3, out=pump_w)
        np.maximum(pump_w, 0.05, out=pump_w)
        np.multiply(self.cdu_pump_rated, pump_w, out=pump_w)
        np.multiply(self.cdu_pumps_running, pump_w, out=pump_w)

        fac = self.facility
        col = dict(zip(_COLUMNS, fac.columns(A)))
        htwps, speed = col["p_n_running"], col["p_pump_speed"]
        ctwps, cells = col["t_n_running"], col["cell_stage.count"]
        # Pump and fan powers: one Python-float pow per lane.
        htwp_w = [
            _pump_power(fac.htwp_rated, s) if m else 0.0
            for m, s in zip(htwps.tolist(), speed.tolist())
        ]
        ctwp_w = [
            _pump_power(fac.ctwp_rated, s) if m else 0.0
            for m, s in zip(ctwps.tolist(), col["t_pump_speed"].tolist())
        ]
        fan_w = [
            _fan_power(fac.cell_fan_w, m, f)
            for m, f in zip(cells.tolist(), col["t_fan_speed"].tolist())
        ]
        # Header pressure: the reference's IEEE-exact scalar arithmetic.
        q = col["p_total_flow"] / np.maximum(htwps, 1)
        head = speed * speed * fac.p_h0 - fac.p_kp * q * q
        head = np.where(head < 0.0, 0.0, head)

        # Facility aux power (HTWPs + CTWPs + fans) and PUE, elementwise
        # over lanes in the reference's operation order.
        aux_cep_w = _unit_sums(fac.htwp_cols, htwps, htwp_w)
        aux_cep_w += _unit_sums(fac.ctwp_cols, ctwps, ctwp_w)
        aux_cep_w += _unit_sums(fac.cell_cols, cells, fan_w)
        power = np.array(system_power_w, dtype=np.float64)
        pue = np.ones(A)
        np.divide(power + aux_cep_w, power, out=pue, where=power > 0)
        return {
            "pue": pue,
            "htw_supply_temp_c": col["p_supply_t"],
            "htw_return_temp_c": col["p_return_t"],
            "htw_supply_pressure_pa": HEADER_STATIC_PA + 0.75 * head,
            "ctw_supply_temp_c": col["t_supply_t"],
            "num_ct_staged": cells,
            "num_htwp_staged": htwps,
            "num_ehx_staged": col["p_n_ehx"],
            "aux_power_w": aux_cep_w + np.add.reduce(pump_w, axis=1),
            "cdu_primary_flow_m3s": self.pri_flow[:A],
            "cdu_primary_return_temp_c": self.pri_return[:A],
            "cdu_secondary_supply_temp_c": self.cold_t[:A],
            "cdu_pump_power_w": pump_w,
        }


__all__ = ["BatchedPlantKernel"]
