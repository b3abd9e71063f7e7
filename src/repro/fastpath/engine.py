"""The surrogate-backed execution engine (the L3 fast path).

:class:`SurrogateEngine` is a drop-in execution backend for the
streaming engine protocol (:class:`~repro.core.engine.StreamingEngine`)
— the same ``iter_steps()`` → :class:`~repro.core.engine.StepState`
stream and ``run()`` → :class:`~repro.core.engine.SimulationResult`
collector as :class:`~repro.core.engine.RapsEngine` — that replaces the
two expensive physics models with trained surrogates:

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

from typing import Iterator

import numpy as np

from repro.config.schema import SystemSpec
from repro.core.engine import (
    DEFAULT_COOLING_RECORD,
    WARMUP_COOLING_S,
    ElectricalRun,
    StepState,
    StreamingEngine,
)
from repro.exceptions import SimulationError
from repro.fastpath.bundle import SurrogateBundle
from repro.scheduler.engine import SchedulerEngine
from repro.scheduler.job import Job
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

    def iter_steps(
        self,
        jobs: list[Job],
        duration_s: float,
        *,
        wetbulb: TimeSeries | float = 15.0,
        warmup_cooling_s: float = WARMUP_COOLING_S,
        events=(),
    ) -> Iterator[StepState]:
        """Stream surrogate-fidelity steps, one per 15 s trace quantum.

        Protocol-compatible with :meth:`RapsEngine.iter_steps
        <repro.core.engine.RapsEngine.iter_steps>`.  Internally the run
        is computed in two vectorized passes — a full scheduling sweep
        collecting per-quantum slot aggregates, then batched surrogate
        queries over every quantum at once — and only then streamed, so
        closing the generator early saves no compute (it already cost
        milliseconds).  ``warmup_cooling_s`` is accepted for signature
        compatibility and ignored: the cooling surrogate predicts the
        *steady-state* response, which is its own warmup.

        Cooling records hold the fields of
        :data:`~repro.core.engine.DEFAULT_COOLING_RECORD` the surrogate
        can produce (:data:`SURROGATE_COOLING_OUTPUTS`).

        ``events`` (:class:`~repro.core.events.FaultEvent` stream) is
        honored for node outages — scheduling is exact, so node-down/up
        behave bit-identically to the full engine.  ``cdu-blockage``
        events are ignored: the steady-state cooling surrogate has no
        transient plant to block (a documented screening approximation).
        """
        # --- pass 1: exact scheduling, O(slots) feature extraction.
        run = ElectricalRun(self.scheduler, jobs, duration_s, events=events)
        n_steps = run.n_steps
        total_nodes = self.spec.total_nodes
        fracs = np.empty(n_steps)
        cpus = np.empty(n_steps)
        gpus = np.empty(n_steps)
        utils = np.empty(n_steps)
        nrun = np.empty(n_steps, dtype=np.int64)
        for k, t_sample in run.gen:
            fracs[k], cpus[k], gpus[k] = run.pool.active_aggregates(
                t_sample, self.quanta, total_nodes
            )
            utils[k] = self.scheduler.utilization
            nrun[k] = self.scheduler.num_running

        # --- pass 2: batched surrogate physics over all quanta at once.
        times = np.arange(n_steps, dtype=np.float64) * self.quanta
        power = self.bundle.predict_power_features(fracs, cpus, gpus)
        sys_w = power["system_power_w"]
        loss_w = power["loss_w"]
        sivoc_w = power["sivoc_loss_w"]
        rect_w = power["rectifier_loss_w"]
        # eta = P_out / P_in with P_out = P_in - loss; P_in is the
        # conversion-chain input: system power minus switches and pumps.
        chain_in = np.maximum(
            sys_w - self._static_overhead_w(), loss_w
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            eff = np.where(
                chain_in > 0.0, 1.0 - loss_w / chain_in, 1.0
            )
        num_cdus = self.spec.cooling.num_cdus
        cdu_w = np.maximum(
            sys_w - self.spec.power.cdu_pump_power_w * num_cdus, 0.0
        )[:, None] / num_cdus * np.ones(num_cdus)
        cdu_heat = cdu_w * self.spec.power.cooling_efficiency

        cooling_series: dict[str, np.ndarray] = {}
        if self.with_cooling:
            wb = self._wetbulb_series(wetbulb, times)
            predicted = self.bundle.predict_cooling(sys_w, wb)
            record = [
                name
                for name in DEFAULT_COOLING_RECORD
                if name in SURROGATE_COOLING_OUTPUTS
            ]
            cooling_series = {name: predicted[name] for name in record}

        for k in range(n_steps):
            yield StepState(
                index=k,
                time_s=float(times[k]),
                system_power_w=float(sys_w[k]),
                loss_w=float(loss_w[k]),
                sivoc_loss_w=float(sivoc_w[k]),
                rectifier_loss_w=float(rect_w[k]),
                chain_efficiency=float(eff[k]),
                utilization=float(utils[k]),
                num_running=int(nrun[k]),
                cdu_power_w=cdu_w[k],
                cdu_heat_w=cdu_heat[k],
                cooling={
                    name: np.float64(series[k])
                    for name, series in cooling_series.items()
                },
            )

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
