"""The assembled Frontier cooling system (paper Fig. 5).

Three loops joined by heat exchangers:

    racks -> CDU secondary loops (25x) -> HEX-1600 -> primary HTW loop
          -> EHX1-5 -> cooling-tower loop -> 5x4-cell tower farm -> ambient

Inputs per macro step (15 s): heat extracted per CDU (W, 25 values) and
wet-bulb temperature (degC); optionally the total system power for PUE.
The macro step is operator-split into control + quasi-static hydraulics
+ exponential thermal substeps (DESIGN.md section 5).

Outputs: exactly the 317 quantities of paper section III-C4, tallied as

    25 CDUs x 11        = 275   (pump work; primary/secondary flow;
                                 supply/return temperatures and pressures
                                 at stations 12-15)
    primary pump loop    =  10   (pumps + EHX staged; 4x HTWP power,
                                 4x HTWP speed)
    cooling-tower loop   =  25   (cells staged; 4x CTWP power;
                                 20x cell fan power)
    facility + PUE       =   7   (HTW supply/return temp + pressure,
                                 CTW supply/return temp, PUE)
    -------------------------------------------------------------------
    total                = 317
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.config.schema import CoolingSpec
from repro.cooling.loops.cdu import CduLoopBank
from repro.cooling.loops.primary import PrimaryLoop
from repro.cooling.loops.tower import TowerLoop
from repro.exceptions import CoolingModelError

#: Number of model outputs per simulation step (paper section III-C4).
NUM_OUTPUTS = 317

#: Plant stepping backends: the fused flat-array kernel (default) and
#: the reference object-graph integrator it is bit-identical to.
BACKENDS = ("fused", "reference")


@dataclass
class PlantState:
    """Snapshot of the plant after one macro step."""

    time_s: float
    cdu_pump_power_w: np.ndarray
    cdu_primary_flow_m3s: np.ndarray
    cdu_secondary_flow_m3s: np.ndarray
    cdu_primary_supply_temp_c: np.ndarray
    cdu_primary_return_temp_c: np.ndarray
    cdu_secondary_supply_temp_c: np.ndarray
    cdu_secondary_return_temp_c: np.ndarray
    cdu_primary_supply_pressure_pa: np.ndarray
    cdu_primary_return_pressure_pa: np.ndarray
    cdu_secondary_supply_pressure_pa: np.ndarray
    cdu_secondary_return_pressure_pa: np.ndarray
    num_htwp_staged: int
    num_ehx_staged: int
    htwp_power_w: np.ndarray
    htwp_speed: np.ndarray
    num_ct_staged: int
    ctwp_power_w: np.ndarray
    ct_fan_power_w: np.ndarray
    htw_supply_temp_c: float
    htw_return_temp_c: float
    htw_supply_pressure_pa: float
    htw_return_pressure_pa: float
    ctw_supply_temp_c: float
    ctw_return_temp_c: float
    pue: float
    aux_power_w: float = 0.0
    extras: dict = field(default_factory=dict)

    def as_output_vector(self) -> np.ndarray:
        """Flatten to the canonical 317-value output vector."""
        parts = [
            self.cdu_pump_power_w,
            self.cdu_primary_flow_m3s,
            self.cdu_secondary_flow_m3s,
            self.cdu_primary_supply_temp_c,
            self.cdu_primary_return_temp_c,
            self.cdu_secondary_supply_temp_c,
            self.cdu_secondary_return_temp_c,
            self.cdu_primary_supply_pressure_pa,
            self.cdu_primary_return_pressure_pa,
            self.cdu_secondary_supply_pressure_pa,
            self.cdu_secondary_return_pressure_pa,
            [float(self.num_htwp_staged), float(self.num_ehx_staged)],
            self.htwp_power_w,
            self.htwp_speed,
            [float(self.num_ct_staged)],
            self.ctwp_power_w,
            self.ct_fan_power_w,
            [
                self.htw_supply_temp_c,
                self.htw_return_temp_c,
                self.htw_supply_pressure_pa,
                self.htw_return_pressure_pa,
                self.ctw_supply_temp_c,
                self.ctw_return_temp_c,
                self.pue,
            ],
        ]
        return np.concatenate([np.asarray(p, dtype=np.float64).ravel() for p in parts])


def output_names(num_cdus: int = 25, num_cells: int = 20) -> list[str]:
    """Canonical names of the flattened output vector entries."""
    names: list[str] = []
    per_cdu = [
        "pump_power_w",
        "primary_flow_m3s",
        "secondary_flow_m3s",
        "primary_supply_temp_c",
        "primary_return_temp_c",
        "secondary_supply_temp_c",
        "secondary_return_temp_c",
        "primary_supply_pressure_pa",
        "primary_return_pressure_pa",
        "secondary_supply_pressure_pa",
        "secondary_return_pressure_pa",
    ]
    for quantity in per_cdu:
        names.extend(f"cdu{i:02d}_{quantity}" for i in range(num_cdus))
    names.extend(["num_htwp_staged", "num_ehx_staged"])
    names.extend(f"htwp{i+1}_power_w" for i in range(4))
    names.extend(f"htwp{i+1}_speed" for i in range(4))
    names.append("num_ct_staged")
    names.extend(f"ctwp{i+1}_power_w" for i in range(4))
    names.extend(f"ct_cell{i+1:02d}_fan_power_w" for i in range(num_cells))
    names.extend(
        [
            "htw_supply_temp_c",
            "htw_return_temp_c",
            "htw_supply_pressure_pa",
            "htw_return_pressure_pa",
            "ctw_supply_temp_c",
            "ctw_return_temp_c",
            "pue",
        ]
    )
    return names


@dataclass
class PlantSnapshot:
    """Opaque deep-copied capsule of a :class:`CoolingPlant`'s state.

    Produced by :meth:`CoolingPlant.snapshot`, consumed by
    :meth:`CoolingPlant.restore`.  Picklable (pure Python + NumPy), so
    snapshots can be cached per process or shipped between them.
    """

    cdus: object
    primary: object
    tower: object
    time_s: float
    primary_header_dp_pa: float


class CoolingPlant:
    """Transient model of the CEP + 25 CDU loops.

    Parameters
    ----------
    cooling:
        Plant description (defaults reproduce Frontier's Fig. 5 layout).
    substep_s:
        Internal integration substep; the 15 s macro step is divided
        into ceil(dt / substep_s) substeps.
    backend:
        ``"fused"`` (default) advances all substeps of a macro step in
        one call of a one-lane
        :class:`~repro.batch.kernel.BatchedPlantKernel` over flat
        preallocated arrays, syncing it with the component graph every
        step (:meth:`warmup` syncs once, see :func:`settle`);
        ``"reference"`` walks the component object graph substep
        by substep.  The two are bit-identical (the kernel mirrors the
        reference arithmetic operation for operation); the reference
        backend is kept as the oracle the equivalence tests check
        against.
    """

    #: Static reference pressure for the secondary loops, Pa.
    SECONDARY_STATIC_PA = 150.0e3

    def __init__(
        self,
        cooling: CoolingSpec,
        *,
        substep_s: float = 3.0,
        backend: str = "fused",
    ) -> None:
        if substep_s <= 0:
            raise CoolingModelError("substep must be positive")
        if backend not in BACKENDS:
            raise CoolingModelError(
                f"unknown plant backend {backend!r}; expected one of {BACKENDS}"
            )
        self.spec = cooling
        self.substep_s = float(substep_s)
        self.backend = backend
        self.cdus = CduLoopBank(cooling)
        self.primary = PrimaryLoop(cooling)
        self.tower = TowerLoop(cooling)
        self.time_s = 0.0
        #: Header dp the HTWP VFDs hold for the CDU valves, Pa.
        self.primary_header_dp_pa = 0.7 * cooling.primary_loop.design_dp_pa
        self._kernel = None
        if backend == "fused":
            from repro.batch.kernel import BatchedPlantKernel

            self._kernel = BatchedPlantKernel([self])

    # -- stepping --------------------------------------------------------------

    def step(
        self,
        cdu_heat_w: np.ndarray,
        wetbulb_c: float,
        dt: float | None = None,
        *,
        system_power_w: float | None = None,
    ) -> PlantState:
        """Advance one macro step (default: the spec's 15 s coupling).

        ``cdu_heat_w`` is the heat deposited in each CDU's secondary
        loop (the RAPS coupling input, already scaled by the cooling
        efficiency); ``system_power_w`` (if given) is used for the PUE
        denominator, otherwise it is estimated from the heat input.
        """
        if dt is None:
            dt = self.spec.step_seconds
        cdu_heat_w = self._checked_heat(cdu_heat_w, dt)
        if self._kernel is not None:
            settle([self], [cdu_heat_w], [float(wetbulb_c)], dt, 1)
            return self._snapshot(cdu_heat_w, system_power_w)
        n_sub = max(1, int(np.ceil(dt / self.substep_s)))
        h = dt / n_sub
        for _ in range(n_sub):
            self._substep(cdu_heat_w, float(wetbulb_c), h)
        self.time_s += dt
        return self._snapshot(cdu_heat_w, system_power_w)

    def _checked_heat(self, cdu_heat_w: np.ndarray, dt: float) -> np.ndarray:
        """``cdu_heat_w`` as a float64 array, once the step's inputs
        are checked."""
        if dt <= 0:
            raise CoolingModelError("dt must be positive")
        cdu_heat_w = np.asarray(cdu_heat_w, dtype=np.float64)
        if cdu_heat_w.shape != (self.spec.num_cdus,):
            raise CoolingModelError(
                f"cdu_heat_w must have shape ({self.spec.num_cdus},)"
            )
        if not (cdu_heat_w >= 0).all():
            raise CoolingModelError("heat must be non-negative")
        return cdu_heat_w

    def _substep(self, cdu_heat_w: np.ndarray, wetbulb_c: float, h: float) -> None:
        # 1. Controls.
        self.cdus.update_controls(h)
        self.tower.update_controls(
            self.primary.supply_temp_c, self.primary.supply_setpoint_c, h
        )
        # 2. Quasi-static hydraulics.
        self.cdus.update_flows(self.primary_header_dp_pa)
        self.primary.update_flows(self.cdus.total_primary_flow, h)
        # 3. Staging couplings.
        self.primary.stage_ehx(
            self.tower.n_cells, self.spec.cooling_towers.cells_per_tower
        )
        # 4. Thermal advance, upstream to downstream.
        self.cdus.advance_thermal(cdu_heat_w, self.primary.supply_temp_c, h)
        q = self.cdus.primary_flow
        q_total = float(np.sum(q))
        if q_total > 1e-9:
            mix_c = float(np.sum(q * self.cdus.primary_return_c) / q_total)
        else:
            mix_c = self.primary.return_temp_c
        ehx_cold_out = self.primary.advance_thermal(
            mix_c, self.tower.supply_temp_c, self.tower.total_flow, h
        )
        self.tower.advance_thermal(ehx_cold_out, wetbulb_c, h)

    # -- outputs -----------------------------------------------------------------

    def _snapshot(
        self, cdu_heat_w: np.ndarray, system_power_w: float | None
    ) -> PlantState:
        n = self.spec.num_cdus
        htw_supply_p, htw_return_p = self.primary.header_pressures_pa()
        # CDU branch pressures: header minus branch losses ~ Q^2.
        q_pri = self.cdus.primary_flow
        branch_drop = 0.15 * self.primary_header_dp_pa * (
            q_pri / self.cdus.Q_PRIMARY_MAX
        ) ** 2
        cdu_pri_supply_p = np.full(n, htw_supply_p) - branch_drop
        cdu_pri_return_p = np.full(n, htw_return_p) + 0.2 * branch_drop
        sec_dp = np.asarray(
            self.cdus.resistance.pressure_drop(self.cdus.secondary_flow)
        )
        sec_supply_p = self.SECONDARY_STATIC_PA + sec_dp
        sec_return_p = np.full(n, self.SECONDARY_STATIC_PA)

        cdu_pump_w = self.cdus.pump_power_w()
        htwp_w = self.primary.per_pump_power_w()
        ctwp_w = self.tower.per_pump_power_w()
        fan_w = self.tower.per_cell_fan_power_w()
        aux_cep_w = float(np.sum(htwp_w) + np.sum(ctwp_w) + np.sum(fan_w))
        aux_total_w = aux_cep_w + float(np.sum(cdu_pump_w))

        if system_power_w is None:
            cooling_eff = 0.945
            system_power_w = float(np.sum(cdu_heat_w)) / cooling_eff + float(
                np.sum(cdu_pump_w)
            )
        pue = (
            (system_power_w + aux_cep_w) / system_power_w
            if system_power_w > 0
            else 1.0
        )

        htwp_speed = np.zeros(4)
        htwp_speed[: self.primary.pumps.n_running] = self.primary.pump_speed

        return PlantState(
            time_s=self.time_s,
            cdu_pump_power_w=cdu_pump_w,
            cdu_primary_flow_m3s=self.cdus.primary_flow.copy(),
            cdu_secondary_flow_m3s=self.cdus.secondary_flow.copy(),
            cdu_primary_supply_temp_c=np.full(n, self.primary.supply_temp_c),
            cdu_primary_return_temp_c=self.cdus.primary_return_c.copy(),
            cdu_secondary_supply_temp_c=self.cdus.secondary_supply_c.copy(),
            cdu_secondary_return_temp_c=self.cdus.secondary_return_c.copy(),
            cdu_primary_supply_pressure_pa=cdu_pri_supply_p,
            cdu_primary_return_pressure_pa=cdu_pri_return_p,
            cdu_secondary_supply_pressure_pa=sec_supply_p,
            cdu_secondary_return_pressure_pa=sec_return_p,
            num_htwp_staged=self.primary.pumps.n_running,
            num_ehx_staged=self.primary.n_ehx,
            htwp_power_w=htwp_w,
            htwp_speed=htwp_speed,
            num_ct_staged=self.tower.n_cells,
            ctwp_power_w=ctwp_w,
            ct_fan_power_w=fan_w,
            htw_supply_temp_c=self.primary.supply_temp_c,
            htw_return_temp_c=self.primary.return_temp_c,
            htw_supply_pressure_pa=htw_supply_p,
            htw_return_pressure_pa=htw_return_p,
            ctw_supply_temp_c=self.tower.supply_temp_c,
            ctw_return_temp_c=self.tower.return_temp_c,
            pue=float(pue),
            aux_power_w=aux_total_w,
        )

    # -- state snapshot / restore ----------------------------------------------

    def snapshot(self) -> "PlantSnapshot":
        """Capture the plant's full transient state as an opaque capsule.

        The capsule is deep-copied both ways, so one snapshot of a
        warmed plant can seed any number of later runs (the serving
        layer's :class:`~repro.service.warmcache.WarmStateCache` keys
        these by spec hash to amortize the 1800 s cooling warmup).
        Restoring a snapshot reproduces the subsequent trajectory bit
        for bit: stepping is a pure function of plant state and inputs.
        """
        return PlantSnapshot(
            cdus=copy.deepcopy(self.cdus),
            primary=copy.deepcopy(self.primary),
            tower=copy.deepcopy(self.tower),
            time_s=self.time_s,
            primary_header_dp_pa=self.primary_header_dp_pa,
        )

    def restore(self, snapshot: "PlantSnapshot") -> None:
        """Overwrite the plant's state from a :meth:`snapshot` capsule."""
        if not isinstance(snapshot, PlantSnapshot):
            raise CoolingModelError(
                f"restore() takes a PlantSnapshot, got "
                f"{type(snapshot).__name__}"
            )
        if snapshot.cdus.n != self.spec.num_cdus:
            raise CoolingModelError(
                f"snapshot holds {snapshot.cdus.n} CDU loops, plant has "
                f"{self.spec.num_cdus}"
            )
        self.cdus = copy.deepcopy(snapshot.cdus)
        self.primary = copy.deepcopy(snapshot.primary)
        self.tower = copy.deepcopy(snapshot.tower)
        self.time_s = snapshot.time_s
        self.primary_header_dp_pa = snapshot.primary_header_dp_pa

    def warmup(
        self, cdu_heat_w: np.ndarray, wetbulb_c: float, duration_s: float = 3600.0
    ) -> PlantState:
        """Run the plant to (near) steady state at a fixed load.

        ``max(1, int(duration_s / step))`` macro steps of the spec's
        coupling step; returns the last one's state.  The fused backend
        settles resident (:func:`settle`), bit-identical to the
        reference backend's loop of :meth:`step` calls.
        """
        dt = self.spec.step_seconds
        steps = max(1, int(duration_s / dt))
        if self._kernel is None:
            for _ in range(steps):
                state = self.step(cdu_heat_w, wetbulb_c)
            return state
        cdu_heat_w = self._checked_heat(cdu_heat_w, dt)
        settle([self], [cdu_heat_w], [float(wetbulb_c)], dt, steps)
        return self._snapshot(cdu_heat_w, None)


def settle(plants, cdu_heat_w, wetbulb_c, dt: float, steps: int) -> None:
    """Advance ``plants`` ``steps`` macro steps of ``dt`` seconds at a
    fixed heat (checked ``(n,)`` float64 arrays) and wet-bulb per plant.

    Bit-identical to ``steps`` :meth:`CoolingPlant.step` calls on each
    plant, without their per-step sync: the plants are gathered once
    into one resident :class:`~repro.batch.kernel.BatchedPlantKernel`
    (a lone plant's own one-lane kernel), advanced, and written back
    once.  Each plant's ``time_s`` gains ``dt`` per step, as ``step``
    adds it.  The plants share one spec and one substep.
    """
    if steps <= 0:
        return
    n_sub = max(1, int(np.ceil(dt / plants[0].substep_s)))
    h = dt / n_sub
    kernel = plants[0]._kernel if len(plants) == 1 else None
    if kernel is None:
        from repro.batch.kernel import BatchedPlantKernel

        kernel = BatchedPlantKernel(plants)
    else:
        kernel.gather(0, plants[0])
    for _ in range(steps):
        kernel.advance(cdu_heat_w, wetbulb_c, h, n_sub)
    kernel.write_back(plants)
    for plant in plants:
        for _ in range(steps):
            plant.time_s += dt


__all__ = [
    "CoolingPlant",
    "PlantState",
    "PlantSnapshot",
    "output_names",
    "settle",
    "BACKENDS",
    "NUM_OUTPUTS",
]
