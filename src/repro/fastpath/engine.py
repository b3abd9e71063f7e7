"""The surrogate-backed execution engine (the L3 fast path).

:class:`SurrogateEngine` is a drop-in execution backend for the
streaming engine protocol (:class:`~repro.core.engine.StreamingEngine`)
— it fills the same result columns as
:class:`~repro.core.engine.RapsEngine`, so ``run()`` returns the same
:class:`~repro.core.engine.SimulationResult` shape and ``iter_steps()``
streams the same :class:`~repro.core.engine.StepState` rows — and
replaces the two expensive physics models with trained surrogates:

- *scheduling stays full fidelity*: the event-driven half of
  Algorithm 1 (:func:`~repro.core.engine.drive_schedule`, node-outage
  events included) runs bit-identically, so queue dynamics, placements,
  and utilization are exact;
- *power is predicted, not aggregated*: per quantum the trace pool
  reduces to three slot-level features (active fraction, mean CPU/GPU
  utilization) — O(running jobs), never O(nodes) — and a single
  vectorized :class:`~repro.surrogate.models.PowerSurrogate` query over
  all quanta replaces per-node evaluation;
- *cooling is predicted, not integrated*: steady-state PUE and HTW
  supply temperature come from one vectorized
  :class:`~repro.surrogate.models.CoolingSurrogate` query instead of
  thousands of plant substeps.

This is the paper's Fig. 2 ladder in code: L4 simulation generates the
training data (:mod:`repro.fastpath.train`), the L3 surrogate then
answers interpolative queries at a tiny fraction of the cost —
milliseconds per campaign cell instead of seconds to minutes.  The
trade: cooling outputs are the steady-state response (no transients,
so ``warmup_cooling_s`` is accepted and ignored), only the surrogate's
output set is recorded, and conversion-chain overrides are rejected
(the bundle was trained on the baseline chain).
"""

from __future__ import annotations

import numpy as np

from repro.config.schema import SystemSpec
from repro.core.engine import DEFAULT_COOLING_RECORD, Lane, StreamingEngine
from repro.exceptions import SimulationError
from repro.fastpath.bundle import SurrogateBundle
from repro.scheduler.engine import SchedulerEngine
from repro.telemetry.dataset import TimeSeries
from repro.telemetry.schema import TRACE_QUANTA_S

#: Cooling outputs a surrogate run can record (subset of the full set).
SURROGATE_COOLING_OUTPUTS = ("pue", "htw_supply_temp_c")


class SurrogateEngine(StreamingEngine):
    """Surrogate-backed implementation of the streaming engine protocol.

    Parameters mirror :class:`~repro.core.engine.RapsEngine` where they
    apply; ``bundle`` supplies the trained models and must have been
    trained for ``spec`` (checked via its spec-SHA provenance).
    Conversion-chain overrides are not supported — run what-ifs at full
    fidelity.
    """

    def __init__(
        self,
        spec: SystemSpec,
        bundle: SurrogateBundle,
        *,
        with_cooling: bool = True,
        honor_recorded_starts: bool = False,
        policy: str | None = None,
    ) -> None:
        bundle.check_spec(spec)
        if with_cooling and not bundle.has_cooling:
            raise SimulationError(
                "bundle has no cooling surrogate; train one (fit_bundle "
                "cooling=True / fit from a coupled campaign) or run with "
                "with_cooling=False"
            )
        self.spec = spec
        self.bundle = bundle
        self.with_cooling = bool(with_cooling)
        self.scheduler = SchedulerEngine(
            spec.total_nodes,
            policy=policy or spec.scheduler.policy,
            honor_recorded_starts=honor_recorded_starts,
            max_queue_depth=spec.scheduler.max_queue_depth,
        )
        self.quanta = TRACE_QUANTA_S

    # -- main loop ------------------------------------------------------------

    def _lane_steps(self, jobs, duration_s, wetbulb, warmup_cooling_s, events):
        """The surrogate-fidelity run, one row per 15 s trace quantum.

        Protocol-compatible with :meth:`RapsEngine.iter_steps
        <repro.core.engine.RapsEngine.iter_steps>`.  The run is computed
        in two vectorized passes — a full scheduling sweep collecting
        per-quantum slot aggregates, then batched surrogate queries over
        every quantum at once — straight into the lane's columns, before
        any step is streamed, so closing a stream early saves no compute
        (it already cost milliseconds).  ``warmup_cooling_s`` is
        accepted for signature compatibility and ignored: the cooling
        surrogate predicts the *steady-state* response, which is its own
        warmup.

        The cooling columns hold the fields of
        :data:`~repro.core.engine.DEFAULT_COOLING_RECORD` the surrogate
        can produce (:data:`SURROGATE_COOLING_OUTPUTS`).

        ``events`` (:class:`~repro.core.events.FaultEvent` stream) is
        honored for node outages — scheduling is exact, so node-down/up
        behave bit-identically to the full engine.  ``cdu-blockage``
        events are ignored: the steady-state cooling surrogate has no
        transient plant to block (a documented screening approximation).
        """
        num_cdus = self.spec.cooling.num_cdus
        lane = Lane(
            self.scheduler, jobs, duration_s, events=events,
            num_cdus=num_cdus,
        )
        run = lane.run
        cols = run.columns
        # --- pass 1: exact scheduling, O(slots) feature extraction.
        n_steps = run.n_steps
        total_nodes = self.spec.total_nodes
        fracs = np.empty(n_steps)
        cpus = np.empty(n_steps)
        gpus = np.empty(n_steps)
        for k, t_sample in run.gen:
            fracs[k], cpus[k], gpus[k] = run.pool.active_aggregates(
                t_sample, self.quanta, total_nodes
            )
            cols["utilization"][k] = self.scheduler.utilization
            cols["num_running"][k] = self.scheduler.num_running

        # --- pass 2: batched surrogate physics over all quanta at once.
        power = self.bundle.predict_power_features(fracs, cpus, gpus)
        sys_w = power["system_power_w"]
        loss_w = power["loss_w"]
        cols["system_power_w"][:] = sys_w
        cols["loss_w"][:] = loss_w
        cols["sivoc_loss_w"][:] = power["sivoc_loss_w"]
        cols["rectifier_loss_w"][:] = power["rectifier_loss_w"]
        # eta = P_out / P_in with P_out = P_in - loss; P_in is the
        # conversion-chain input: system power minus switches and pumps.
        chain_in = np.maximum(
            sys_w - self._static_overhead_w(), loss_w
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            cols["chain_efficiency"][:] = np.where(
                chain_in > 0.0, 1.0 - loss_w / chain_in, 1.0
            )
        cdu_w = cols["cdu_power_w"]
        cdu_w[:] = np.maximum(
            sys_w - self.spec.power.cdu_pump_power_w * num_cdus, 0.0
        )[:, None] / num_cdus * np.ones(num_cdus)
        cols["cdu_heat_w"][:] = cdu_w * self.spec.power.cooling_efficiency

        if self.with_cooling:
            wb = self._wetbulb_series(wetbulb, cols["times_s"])
            predicted = self.bundle.predict_cooling(sys_w, wb)
            lane.row = 0
            lane.cooling = {
                name: np.asarray(predicted[name], dtype=np.float64)[None]
                for name in DEFAULT_COOLING_RECORD
                if name in SURROGATE_COOLING_OUTPUTS
            }
        return lane, (k for k in range(n_steps))

    # -- helpers ---------------------------------------------------------------

    def _static_overhead_w(self) -> float:
        """Switch + CDU-pump power: the non-chain share of system power."""
        switches = sum(
            p.total_racks * p.rack.switch_power_per_rack_w
            for p in self.spec.partitions
        )
        pumps = self.spec.power.cdu_pump_power_w * self.spec.cooling.num_cdus
        return float(switches + pumps)

    @staticmethod
    def _wetbulb_series(
        wetbulb: TimeSeries | float, times: np.ndarray
    ) -> np.ndarray:
        """Per-quantum wet-bulb values (linear interp for telemetry)."""
        if isinstance(wetbulb, TimeSeries):
            return np.interp(times, wetbulb.times, wetbulb.values)
        return np.full(times.shape, float(wetbulb))


__all__ = ["SurrogateEngine", "SURROGATE_COOLING_OUTPUTS"]
