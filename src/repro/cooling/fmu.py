"""FMI-like co-simulation wrapper around the cooling plant.

The paper exports its Modelica model through the Functional Mock-up
Interface and drives it from RAPS via FMPy (section III-C6).  This class
reproduces the FMI 2.0 co-simulation lifecycle —

    instantiate -> setup_experiment -> set inputs -> do_step -> get outputs

— including protocol-order enforcement, named variable access, and
reset, so the RAPS engine couples to the cooling model exactly the way
the paper's stack does (and so a real FMU could be swapped in behind the
same interface).
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

from repro.config.schema import CoolingSpec
from repro.cooling.plant import (
    CoolingPlant,
    PlantSnapshot,
    PlantState,
    output_names,
    settle,
)
from repro.exceptions import FMUError


@dataclass
class FmuStateSnapshot:
    """One captured FMU state (the FMI 2.0 ``fmi2GetFMUstate`` analog).

    Holds the full plant capsule plus the wrapper's clock, inputs, and
    last step's state, so :meth:`CoolingFMU.set_fmu_state` resumes stepping
    exactly where the capture left off — the mechanism behind the
    serving layer's warm-plant cache (restore a warmed state instead of
    re-running the 1800 s warmup).
    """

    plant: PlantSnapshot
    time: float
    cdu_heat: np.ndarray
    wetbulb_c: float
    system_power_w: float | None
    last_state: PlantState | None
    lifecycle: "FmuState"


def check_wetbulb(wetbulb_c: float) -> float:
    """``wetbulb_c`` as a float, or :class:`FMUError` when it is outside
    the plausible -40..45 degC range (NaN included)."""
    if not -40.0 <= wetbulb_c <= 45.0:
        raise FMUError(f"implausible wet-bulb {wetbulb_c} degC")
    return float(wetbulb_c)


class FmuState(enum.Enum):
    """FMI co-simulation lifecycle states."""

    INSTANTIATED = "instantiated"
    EXPERIMENT_READY = "experiment_ready"
    STEPPING = "stepping"
    TERMINATED = "terminated"


class CoolingFMU:
    """FMI 2.0-style co-simulation unit for the cooling plant.

    Input variables: ``cdu_heat[i]`` (W, one per CDU),
    ``wetbulb_temperature`` (degC), and optional ``system_power`` (W).
    Output variables: the 317 named plant outputs (see
    :func:`repro.cooling.plant.output_names`).
    """

    def __init__(
        self,
        cooling: CoolingSpec,
        *,
        substep_s: float = 3.0,
        backend: str = "fused",
    ) -> None:
        self._cooling = cooling
        self._substep_s = substep_s
        self._backend = backend
        self._plant = CoolingPlant(cooling, substep_s=substep_s, backend=backend)
        self.state = FmuState.INSTANTIATED
        self._time = 0.0
        self._stop_time: float | None = None
        self._cdu_heat = np.zeros(cooling.num_cdus)
        self._wetbulb_c = 15.0
        self._system_power_w: float | None = None
        self._output_names = output_names(
            cooling.num_cdus, cooling.cooling_towers.total_cells
        )
        self._index = {name: i for i, name in enumerate(self._output_names)}
        self.last_state: PlantState | None = None

    # -- lifecycle -----------------------------------------------------------------

    def setup_experiment(
        self, start_time: float = 0.0, stop_time: float | None = None
    ) -> None:
        """Declare the simulation window (FMI setupExperiment)."""
        if self.state is not FmuState.INSTANTIATED:
            raise FMUError(
                f"setup_experiment called in state {self.state.value}"
            )
        self._time = float(start_time)
        self._plant.time_s = self._time
        self._stop_time = stop_time
        self.state = FmuState.EXPERIMENT_READY

    def terminate(self) -> None:
        """End the co-simulation (FMI terminate)."""
        self.state = FmuState.TERMINATED

    def reset(self) -> None:
        """Return to a freshly instantiated unit (FMI reset)."""
        self._plant = CoolingPlant(
            self._cooling, substep_s=self._substep_s, backend=self._backend
        )
        self._time = 0.0
        self._stop_time = None
        self._cdu_heat = np.zeros(self._cooling.num_cdus)
        self._system_power_w = None
        self.last_state = None
        self.state = FmuState.INSTANTIATED

    # -- state snapshot / restore (FMI 2.0 get/setFMUstate) -------------------------

    def get_fmu_state(self) -> FmuStateSnapshot:
        """Capture the unit's complete state (``fmi2GetFMUstate``)."""
        return FmuStateSnapshot(
            plant=self._plant.snapshot(),
            time=self._time,
            cdu_heat=self._cdu_heat.copy(),
            wetbulb_c=self._wetbulb_c,
            system_power_w=self._system_power_w,
            last_state=copy.deepcopy(self.last_state),
            lifecycle=self.state,
        )

    def set_fmu_state(self, snapshot: FmuStateSnapshot) -> None:
        """Restore a captured state (``fmi2SetFMUstate``).

        Legal from any lifecycle state except ``TERMINATED``; the
        snapshot is copied in, so one capture can seed many runs and
        each restored run reproduces the original trajectory bit for
        bit (stepping is a pure function of state and inputs).
        """
        if not isinstance(snapshot, FmuStateSnapshot):
            raise FMUError(
                f"set_fmu_state takes an FmuStateSnapshot, got "
                f"{type(snapshot).__name__}"
            )
        if self.state is FmuState.TERMINATED:
            raise FMUError("set_fmu_state called on a terminated unit")
        self._plant.restore(snapshot.plant)
        self._time = snapshot.time
        self._cdu_heat = snapshot.cdu_heat.copy()
        self._wetbulb_c = snapshot.wetbulb_c
        self._system_power_w = snapshot.system_power_w
        self.last_state = copy.deepcopy(snapshot.last_state)
        self.state = snapshot.lifecycle

    # -- inputs ---------------------------------------------------------------------

    def set_cdu_heat(self, heat_w: np.ndarray) -> None:
        """Set the per-CDU heat input for the next step, W."""
        self._check_running("set_cdu_heat")
        heat_w = np.asarray(heat_w, dtype=np.float64)
        if heat_w.shape != (self._cooling.num_cdus,):
            raise FMUError(
                f"cdu_heat must have shape ({self._cooling.num_cdus},)"
            )
        if not (heat_w >= 0).all():
            raise FMUError("cdu_heat must be non-negative")
        self._cdu_heat = heat_w

    def set_wetbulb(self, wetbulb_c: float) -> None:
        """Set the outdoor wet-bulb temperature, degC."""
        self._check_running("set_wetbulb")
        self._wetbulb_c = check_wetbulb(wetbulb_c)

    def set_system_power(self, power_w: float | None) -> None:
        """Set total system power for the PUE denominator (optional)."""
        self._check_running("set_system_power")
        if power_w is not None and not power_w >= 0:
            raise FMUError("system power must be non-negative")
        self._system_power_w = power_w

    def set_cdu_blockage(self, cdu_index: int, severity: float) -> None:
        """Throttle one CDU loop (fault injection; 1.0 restores it).

        Routes to :meth:`~repro.cooling.loops.cdu.CduLoopBank.set_blockage`
        on the live plant; both stepping backends honor the change from
        the next :meth:`do_step` (the fused backend gathers
        ``blockage_factor`` from the graph every step).  An engine that
        holds the plant resident in a batched kernel mirrors the change
        into its row as well.
        """
        self._check_running("set_cdu_blockage")
        self._plant.cdus.set_blockage(int(cdu_index), float(severity))

    def _check_running(self, op: str) -> None:
        if self.state not in (FmuState.EXPERIMENT_READY, FmuState.STEPPING):
            raise FMUError(f"{op} called in state {self.state.value}")

    # -- stepping -------------------------------------------------------------------

    def do_step(
        self, current_time: float, step_size: float | None = None
    ) -> None:
        """Advance the unit by one communication step (FMI doStep)."""
        self._check_running("do_step")
        if step_size is None:
            step_size = self._cooling.step_seconds
        if step_size <= 0:
            raise FMUError("step_size must be positive")
        if abs(current_time - self._time) > 1e-6:
            raise FMUError(
                f"do_step time mismatch: unit at {self._time}, "
                f"caller at {current_time}"
            )
        if self._stop_time is not None and current_time + step_size > self._stop_time + 1e-9:
            raise FMUError("do_step would pass the experiment stop time")
        state = self._plant.step(
            self._cdu_heat,
            self._wetbulb_c,
            step_size,
            system_power_w=self._system_power_w,
        )
        self.last_state = state
        self._time += step_size
        self.state = FmuState.STEPPING

    @staticmethod
    def settle(fmus, steps: int, step_size: float) -> None:
        """Advance each of ``fmus`` ``steps`` communication steps of
        ``step_size`` at its current inputs, leaving it as that many
        :meth:`do_step` calls would: plant state, clocks, ``last_state``
        and lifecycle.

        Fused units without a stop time settle together, resident in
        one kernel (:func:`~repro.cooling.plant.settle`: gathered once,
        written back once); the others, the reference backend among
        them, step through :meth:`do_step`.
        """
        if steps <= 0:
            return
        resident = []
        for fmu in fmus:
            if fmu._backend != "fused" or fmu._stop_time is not None:
                for _ in range(steps):
                    fmu.do_step(fmu._time, step_size)
                continue
            fmu._check_running("do_step")
            if step_size <= 0:
                raise FMUError("step_size must be positive")
            resident.append(fmu)
        if not resident:
            return
        settle(
            [fmu._plant for fmu in resident],
            [fmu._cdu_heat for fmu in resident],
            [fmu._wetbulb_c for fmu in resident],
            step_size,
            steps,
        )
        for fmu in resident:
            for _ in range(steps):
                fmu._time += step_size
            fmu.last_state = fmu._plant._snapshot(
                fmu._cdu_heat, fmu._system_power_w
            )
            fmu.state = FmuState.STEPPING

    # -- outputs --------------------------------------------------------------------

    @property
    def time(self) -> float:
        return self._time

    @property
    def substep_s(self) -> float:
        """The plant's internal integration substep, s."""
        return self._substep_s

    @property
    def backend(self) -> str:
        """The plant stepping backend (``"fused"`` or ``"reference"``)."""
        return self._backend

    def variable_names(self) -> list[str]:
        """All 317 output variable names, in vector order."""
        return list(self._output_names)

    def get_output(self, name: str) -> float:
        """Read one named output from the last completed step."""
        try:
            index = self._index[name]
        except KeyError:
            raise FMUError(f"unknown output variable {name!r}") from None
        return float(self.get_outputs()[index])

    def get_outputs(self) -> np.ndarray:
        """The full 317-value output vector from the last step (zeros
        before the first)."""
        if self.last_state is None:
            return np.zeros(len(self._output_names))
        return self.last_state.as_output_vector()

    def get_state(self) -> PlantState:
        """Structured snapshot of the last step."""
        if self.last_state is None:
            raise FMUError("no step has completed yet")
        return self.last_state


__all__ = ["CoolingFMU", "FmuState", "FmuStateSnapshot", "check_wetbulb"]
