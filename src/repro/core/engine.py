"""The RAPS main loop (paper Algorithm 1).

Couples the scheduler, the vectorized power model, and the cooling FMU:

- scheduling events (arrivals, dispatches, completions) are processed at
  1 s resolution, event-driven so quiet seconds cost nothing, and a
  tick that could start, complete and admit nothing is skipped;
- power is evaluated every trace quantum (15 s) over all nodes at once:
  a pooled utilization-trace buffer yields per-slot utilizations, Eq. 3
  runs once per (partition, slot) and one gather through the
  allocator's slot map fills the nodes;
- the cooling FMU steps every 15 s with the per-CDU heat (paper: the
  cooling model is called every 15 s during the simulation).

That per-quantum sequence is written once, in :func:`lane_loop`, over an
active prefix of :class:`Lane`\\ s: :class:`RapsEngine` runs it with one
lane, :class:`~repro.batch.engine.BatchedEngine` with B.

A 24-hour Frontier replay runs in seconds (the paper's Modelica stack
takes ~9 minutes with cooling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

import numpy as np

from repro.config.schema import SystemSpec
from repro.cooling.fmu import CoolingFMU, FmuState, check_wetbulb
from repro.core.events import sort_events
from repro.exceptions import SimulationError
from repro.obs.registry import get_registry
from repro.power.system import PowerResult, SystemPowerModel
from repro.scheduler.engine import SchedulerEngine, SchedulerStats
from repro.scheduler.job import Job
from repro.telemetry.dataset import TimeSeries
from repro.telemetry.replay import ReplayCursor
from repro.telemetry.schema import TRACE_QUANTA_S


@dataclass
class SimulationResult:
    """Time series + counters produced by one engine run.

    All series are sampled at the trace quantum (15 s).  Cooling series
    are present only when the run was coupled to the cooling FMU.
    """

    times_s: np.ndarray
    system_power_w: np.ndarray
    loss_w: np.ndarray
    sivoc_loss_w: np.ndarray
    rectifier_loss_w: np.ndarray
    chain_efficiency: np.ndarray
    utilization: np.ndarray
    num_running: np.ndarray
    cdu_power_w: np.ndarray  # (T, num_cdus)
    cdu_heat_w: np.ndarray  # (T, num_cdus)
    scheduler_stats: SchedulerStats
    jobs: list[Job]
    cooling: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1] - self.times_s[0] + TRACE_QUANTA_S)

    @property
    def mean_power_w(self) -> float:
        return float(np.mean(self.system_power_w))

    @property
    def energy_mwh(self) -> float:
        """Total energy over the run, MW-hr (rectangular integration)."""
        return float(np.sum(self.system_power_w) * TRACE_QUANTA_S / 3.6e9)

    @property
    def loss_energy_mwh(self) -> float:
        """Energy lost in conversion over the run, MW-hr."""
        return float(np.sum(self.loss_w) * TRACE_QUANTA_S / 3.6e9)

    @property
    def mean_loss_w(self) -> float:
        return float(np.mean(self.loss_w))

    @property
    def mean_chain_efficiency(self) -> float:
        """Power-weighted mean eta_system over the run."""
        weights = self.system_power_w
        return float(np.average(self.chain_efficiency, weights=weights))

    def power_series(self) -> TimeSeries:
        """System power as a TimeSeries (for export / validation)."""
        return TimeSeries(self.times_s, self.system_power_w, "W")

    def cooling_series(self, name: str) -> TimeSeries:
        """One recorded cooling output as a TimeSeries."""
        if name not in self.cooling:
            raise SimulationError(
                f"cooling series {name!r} not recorded; "
                f"available: {sorted(self.cooling)}"
            )
        return TimeSeries(self.times_s, self.cooling[name], "")


@dataclass(frozen=True)
class StepState:
    """One trace quantum (15 s) of engine state, as yielded by
    :meth:`RapsEngine.iter_steps`.

    Scalar power/loss/efficiency values mirror one row of
    :class:`SimulationResult`; ``cooling`` holds the recorded plant
    outputs for this quantum (empty when the run is uncoupled).
    """

    index: int
    time_s: float
    system_power_w: float
    loss_w: float
    sivoc_loss_w: float
    rectifier_loss_w: float
    chain_efficiency: float
    utilization: float
    num_running: int
    cdu_power_w: np.ndarray  # (num_cdus,)
    cdu_heat_w: np.ndarray  # (num_cdus,)
    cooling: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def pue(self) -> float:
        """Instantaneous PUE (NaN when cooling is uncoupled)."""
        if "pue" not in self.cooling:
            return float("nan")
        return float(np.asarray(self.cooling["pue"]))


#: The plant integration substep every coupled run steps at (the serial
#: engine's and every batched lane's; lanes in one batch share the
#: substep loop).
COOLING_SUBSTEP_S = 3.0

#: Default cooling warmup horizon: the plant is stepped at idle load
#: this long before a coupled run starts.
WARMUP_COOLING_S = 1800.0

#: Cooling outputs recorded by default (the Fig. 7 validation set).
DEFAULT_COOLING_RECORD = (
    "pue",
    "htw_supply_temp_c",
    "htw_return_temp_c",
    "htw_supply_pressure_pa",
    "ctw_supply_temp_c",
    "num_ct_staged",
    "num_htwp_staged",
    "num_ehx_staged",
    "aux_power_w",
    "cdu_primary_flow_m3s",
    "cdu_primary_return_temp_c",
    "cdu_secondary_supply_temp_c",
    "cdu_pump_power_w",
)


class _TracePool:
    """Concatenated utilization traces + per-slot gather state.

    ``event_count`` increments on every slot start/stop, so the engine
    can fingerprint a quantum as (event count, gathered per-slot trace
    values): if neither changed since the previous quantum, the power
    pipeline would reproduce the previous result exactly and can be
    skipped.
    """

    def __init__(self, jobs: list[Job]) -> None:
        cpu_parts = [j.cpu_util for j in jobs]
        gpu_parts = [j.gpu_util for j in jobs]
        lens = np.array([p.size for p in cpu_parts], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1])) if jobs else np.zeros(0, np.int64)
        self.cpu = np.concatenate(cpu_parts) if jobs else np.zeros(0)
        self.gpu = np.concatenate(gpu_parts) if jobs else np.zeros(0)
        self.job_offset = {j.job_id: int(o) for j, o in zip(jobs, offsets)}
        self.job_len = {j.job_id: int(n) for j, n in zip(jobs, lens)}
        self.event_count = 0
        # Slot state (grows with peak concurrency).
        cap = 64
        self.slot_offset = np.zeros(cap, dtype=np.int64)
        self.slot_len = np.ones(cap, dtype=np.int64)
        self.slot_start = np.zeros(cap, dtype=np.float64)
        self.slot_active = np.zeros(cap, dtype=bool)
        self.slot_nodes = np.zeros(cap, dtype=np.int64)

    def _ensure(self, slot: int) -> None:
        while slot >= self.slot_offset.size:
            for name in ("slot_offset", "slot_len", "slot_start"):
                arr = getattr(self, name)
                setattr(self, name, np.concatenate([arr, np.ones_like(arr)]))
            self.slot_active = np.concatenate(
                [self.slot_active, np.zeros_like(self.slot_active)]
            )
            self.slot_nodes = np.concatenate(
                [self.slot_nodes, np.zeros_like(self.slot_nodes)]
            )

    def start(self, job: Job) -> None:
        self._ensure(job.slot)
        self.slot_offset[job.slot] = self.job_offset[job.job_id]
        self.slot_len[job.slot] = self.job_len[job.job_id]
        self.slot_start[job.slot] = job.start_time
        self.slot_active[job.slot] = True
        self.slot_nodes[job.slot] = job.nodes_required
        self.event_count += 1

    def stop(self, job: Job) -> None:
        self.slot_active[job.slot] = False
        self.event_count += 1

    def _slot_utils(self, now: float, quanta: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot (cpu, gpu) utilization at ``now`` (inactive slots 0)."""
        idx = np.clip(
            ((now - self.slot_start) // quanta).astype(np.int64),
            0,
            self.slot_len - 1,
        )
        flat = self.slot_offset + idx
        slot_cpu = np.where(self.slot_active, self.cpu[np.minimum(flat, max(self.cpu.size - 1, 0))], 0.0) if self.cpu.size else np.zeros_like(flat, dtype=np.float64)
        slot_gpu = np.where(self.slot_active, self.gpu[np.minimum(flat, max(self.gpu.size - 1, 0))], 0.0) if self.gpu.size else np.zeros_like(flat, dtype=np.float64)
        return slot_cpu, slot_gpu

    def slot_fingerprint(
        self, now: float, quanta: float
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Cheap per-quantum change fingerprint.

        Returns ``(event_count, slot_cpu, slot_gpu)``: the number of
        slot start/stop events so far plus the gathered per-slot trace
        values at ``now``.  Two quanta with equal fingerprints have
        bit-identical node utilizations (no placement change and the
        same gathered values), so the power evaluation of the first can
        be reused verbatim for the second — O(slots) to check instead
        of O(nodes) to recompute.
        """
        slot_cpu, slot_gpu = self._slot_utils(now, quanta)
        return self.event_count, slot_cpu, slot_gpu

    def active_aggregates(
        self, now: float, quanta: float, total_nodes: int
    ) -> tuple[float, float, float]:
        """(active fraction, mean cpu, mean gpu) over the *active* nodes.

        Node-count-weighted means over slots — O(slots), never O(nodes) —
        which is exactly the feature vector of
        :class:`~repro.surrogate.models.PowerSurrogate`.  Used by the
        fast-path :class:`~repro.fastpath.engine.SurrogateEngine`.
        """
        slot_cpu, slot_gpu = self._slot_utils(now, quanta)
        nodes = np.where(self.slot_active, self.slot_nodes, 0)
        active = float(nodes.sum())
        if active <= 0:
            return 0.0, 0.0, 0.0
        return (
            min(active / float(total_nodes), 1.0),
            float(np.dot(slot_cpu, nodes) / active),
            float(np.dot(slot_gpu, nodes) / active),
        )


def _pending_dispatchable(scheduler: SchedulerEngine, q_end: float) -> bool:
    """Whether a queued job could start before the quantum ends."""
    if scheduler.num_pending == 0:
        return False
    if scheduler.honor_recorded_starts:
        return any(
            j.recorded_start is not None and j.recorded_start < q_end
            for j in scheduler.queue
        )
    return scheduler.allocator.num_free > 0


def drive_schedule(
    scheduler: SchedulerEngine,
    pool: _TracePool,
    jobs: list[Job],
    n_steps: int,
    quanta: float,
    *,
    events=(),
    on_blockage=None,
) -> Iterator[tuple[int, float]]:
    """Advance scheduling quantum by quantum, yielding ``(k, t_sample)``.

    The event-driven half of Algorithm 1, shared by the full-fidelity
    lane loop (:func:`lane_loop`) and the fast-path
    :class:`~repro.fastpath.engine.SurrogateEngine`, so every backend
    reuses the *same* arrival/dispatch/completion ordering bit for bit.
    ``jobs`` must be sorted by ``(submit_time, job_id)`` and ``pool``
    built from the same list; after each yield the scheduler and pool
    reflect the state at the end of quantum ``k`` and
    ``t_sample = k * quanta`` is the sampling instant for that
    quantum's physics.

    ``events`` is an optional stream of
    :class:`~repro.core.events.FaultEvent`\\ s, applied in
    :func:`~repro.core.events.sort_events` order at the start of the
    quantum containing each, *before* that quantum's scheduling — so
    every backend applying the same stream sees identical scheduling.
    Node outages are applied here (jobs killed on failed nodes leave the
    pool like completions); a ``cdu-blockage`` goes to
    ``on_blockage(cdu_index, severity)``, which backends without a
    transient plant leave unset.
    """
    events = sort_events(events) if events else ()
    arrival_ptr = 0
    event_ptr = 0
    now = 0.0
    for k in range(n_steps):
        q_end = (k + 1) * quanta
        # --- fault events quantized to this quantum, before scheduling.
        while event_ptr < len(events) and events[event_ptr].time_s < q_end:
            event = events[event_ptr]
            event_ptr += 1
            nodes = np.asarray(event.nodes, dtype=np.int64)
            if event.kind == "node-down":
                for job in scheduler.fail_nodes(
                    nodes, k * quanta, kill_running=event.kill_running
                ):
                    pool.stop(job)
            elif event.kind == "node-up":
                scheduler.restore_nodes(nodes)
            elif on_blockage is not None:
                on_blockage(event.cdu_index, event.severity)
        # --- event-driven scheduling inside the quantum (1 s grain).
        while True:
            next_arrival = (
                jobs[arrival_ptr].submit_time
                if arrival_ptr < len(jobs)
                else np.inf
            )
            next_completion = scheduler.next_event_time() or np.inf
            # Pending jobs may be startable right now (nodes just freed
            # or replay time reached); the tick below handles both.
            t_event = min(next_arrival, next_completion)
            if t_event >= q_end and not _pending_dispatchable(scheduler, q_end):
                break
            tick_t = float(np.floor(min(t_event, q_end - 1.0)))
            tick_t = max(tick_t, now)
            # Skip a tick that would start, complete and admit nothing
            # (it would end the loop anyway): no arrival or completion
            # by tick_t and no queued job startable then.
            if t_event > tick_t and not scheduler.startable(tick_t):
                break
            arrivals: list[Job] = []
            while (
                arrival_ptr < len(jobs)
                and jobs[arrival_ptr].submit_time <= tick_t
            ):
                arrivals.append(jobs[arrival_ptr])
                arrival_ptr += 1
            started, completed = scheduler.tick(tick_t, arrivals)
            # Stop before start: a job starting this tick may reuse a
            # slot freed by a completion in the same tick, and the
            # pool must mirror the scheduler's complete-then-dispatch
            # order or the reused slot would be deactivated.
            for job in completed:
                pool.stop(job)
            for job in started:
                pool.start(job)
            now = tick_t + 1.0
            if not started and not completed and not arrivals:
                break
        now = q_end
        yield k, k * quanta


def collect_steps(
    steps: Iterator[StepState],
    *,
    jobs: list[Job],
    num_cdus: int,
    scheduler_stats: SchedulerStats,
    progress=None,
    stop_when=None,
) -> SimulationResult:
    """Assemble streamed :class:`StepState`\\ s into a result.

    The shared collector behind :meth:`RapsEngine.run` and
    :meth:`~repro.fastpath.engine.SurrogateEngine.run`: both fidelities
    buffer their streams through this one function, so a surrogate run
    yields a :class:`SimulationResult` that is indistinguishable in
    shape from a full-fidelity one.
    """
    recorded: list[StepState] = []
    try:
        for step in steps:
            recorded.append(step)
            if progress is not None:
                progress(step)
            if stop_when is not None and stop_when(step):
                break
    finally:
        close = getattr(steps, "close", None)
        if close is not None:
            close()
    if not recorded:
        raise SimulationError("run produced no steps")

    n = len(recorded)
    times = np.empty(n)
    sys_w = np.empty(n)
    loss_w = np.empty(n)
    sivoc_w = np.empty(n)
    rect_w = np.empty(n)
    eff = np.empty(n)
    util = np.empty(n)
    nrun = np.empty(n, dtype=np.int64)
    cdu_w = np.empty((n, num_cdus))
    cdu_h = np.empty((n, num_cdus))
    for k, step in enumerate(recorded):
        times[k] = step.time_s
        sys_w[k] = step.system_power_w
        loss_w[k] = step.loss_w
        sivoc_w[k] = step.sivoc_loss_w
        rect_w[k] = step.rectifier_loss_w
        eff[k] = step.chain_efficiency
        util[k] = step.utilization
        nrun[k] = step.num_running
        cdu_w[k] = step.cdu_power_w
        cdu_h[k] = step.cdu_heat_w
    cooling = {
        key: np.asarray([s.cooling[key] for s in recorded])
        for key in recorded[0].cooling
    }
    return SimulationResult(
        times_s=times,
        system_power_w=sys_w,
        loss_w=loss_w,
        sivoc_loss_w=sivoc_w,
        rectifier_loss_w=rect_w,
        chain_efficiency=eff,
        utilization=util,
        num_running=nrun,
        cdu_power_w=cdu_w,
        cdu_heat_w=cdu_h,
        scheduler_stats=scheduler_stats,
        jobs=jobs,
        cooling=cooling,
    )


class ElectricalRun:
    """The electrical half of one run in the Algorithm-1 loop.

    Holds the scheduler the run drives, its trace pool and the
    :func:`drive_schedule` generator over both, the run's conversion
    ``chain`` (None: the spec's baseline chain), and the power
    change-detection fields with the latest :class:`PowerResult`.
    Nothing here reads the wet-bulb or a cooling output, so lanes that
    differ only in their plant or weather can follow one run
    (:meth:`Lane.attach`); ``on_blockage`` receives the run's
    ``cdu-blockage`` events, which only a run with one lane has.
    """

    def __init__(
        self,
        scheduler: SchedulerEngine,
        jobs: list[Job],
        duration_s: float,
        *,
        events=(),
        chain=None,
        on_blockage=None,
    ) -> None:
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        self.scheduler = scheduler
        self.jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self.n_steps = int(np.ceil(duration_s / TRACE_QUANTA_S))
        self.pool = _TracePool(self.jobs)
        self.slot_of_node = scheduler.allocator.slot_of_node
        self.chain = chain
        self.gen = drive_schedule(
            scheduler,
            self.pool,
            self.jobs,
            self.n_steps,
            TRACE_QUANTA_S,
            events=events,
            on_blockage=on_blockage,
        )
        # Change detection: the latest PowerResult and the fingerprint
        # (slot events + gathered per-slot traces) it was computed from.
        self.result: PowerResult | None = None
        self.last_events = -1
        self.last_cpu: np.ndarray | None = None
        self.last_gpu: np.ndarray | None = None
        self.power_evals = 0
        self.power_reuses = 0


class Lane:
    """One lane of the Algorithm-1 loop (:func:`lane_loop`).

    A lane reads its schedule and power from its :class:`ElectricalRun`
    ``run`` — its own, built from the arguments here, or another lane's
    when it follows that run (:meth:`attach`) — and holds what is its
    alone: the wet-bulb input and the run's latest :class:`StepState`.
    A coupled lane holds its cooling ``fmu``, and while
    :func:`resident_cooling` keeps its plant resident, the ``kernel``
    holding it; ``row`` indexes the lane's record in what the loop's
    cooling section returns (-1: the lane is uncoupled).
    """

    def __init__(
        self,
        scheduler: SchedulerEngine,
        jobs: list[Job],
        duration_s: float,
        wetbulb: TimeSeries | float = 15.0,
        events=(),
        fmu: CoolingFMU | None = None,
        *,
        chain=None,
    ) -> None:
        run = ElectricalRun(
            scheduler,
            jobs,
            duration_s,
            events=events,
            chain=chain,
            on_blockage=None if fmu is None else self._block,
        )
        self.attach(run, wetbulb, fmu)

    def attach(
        self,
        run: ElectricalRun,
        wetbulb: TimeSeries | float = 15.0,
        fmu: CoolingFMU | None = None,
    ) -> None:
        """Make ``run`` this lane's electrical run (the constructor's
        last step; a lane following another lane's run calls it in
        place of the constructor)."""
        self.run = run
        self.n_steps = run.n_steps
        self.fmu = fmu
        self.kernel = None
        self.wb_cursor = None
        if isinstance(wetbulb, TimeSeries):
            self.wb_cursor = ReplayCursor(wetbulb, method="linear")
            self.wb0 = float(wetbulb.values[0])
        else:
            self.wb0 = float(wetbulb)
        #: The wet-bulb the resident kernel last stepped this lane at.
        self.wetbulb_c = self.wb0
        self.row = -1
        self.step: StepState | None = None

    def wetbulb_at(self, t_sample: float) -> float:
        if self.wb_cursor is None:
            return self.wb0
        return float(np.asarray(self.wb_cursor.value(t_sample)))

    def _block(self, cdu_index: int, severity: float) -> None:
        self.fmu.set_cdu_blockage(cdu_index, severity)
        if self.kernel is not None:
            self.kernel.set_blockage(self.row, cdu_index, severity)


def lane_runs(lanes: list[Lane]) -> list[ElectricalRun]:
    """The distinct electrical runs of ``lanes``, in first-lane order
    (so longest-first lanes give longest-first runs)."""
    return list(dict.fromkeys(lane.run for lane in lanes))


def lane_loop(
    lanes: list[Lane],
    evaluate,
    cool=None,
    *,
    detect: bool = True,
    profiler=None,
) -> Iterator[list[Lane]]:
    """Algorithm 1's per-quantum sequence, written once for B lanes.

    Each quantum it advances the schedule of every active electrical
    run (:func:`lane_runs`), fingerprints the run's trace pool and
    either reuses its previous power result or evaluates it — the
    changed runs in one ``evaluate(ids, cpu_rows, gpu_rows, slot_maps)``
    call, ``ids`` being positions in ``lane_runs(lanes)``, the rows
    per-slot utilizations and the maps each run's node-to-slot map —
    then steps cooling with one ``cool(t_sample, active)`` call
    returning the records the coupled lanes index by ``row``, sets each
    active lane's ``step`` and yields the active lanes.  Lanes sharing
    a run share its schedule and power work; each keeps its own plant,
    wet-bulb and steps.

    ``lanes`` are ordered longest-first so the lanes still running are
    always a prefix (the batched plant kernel requires it); a run's
    lanes have its length, so the live runs are a prefix too.  One lane
    is :class:`RapsEngine`; B lanes are
    :class:`~repro.batch.engine.BatchedEngine`.  ``detect=False``
    evaluates every quantum (the change-detection oracle); a
    ``profiler`` accumulates the schedule / power / cooling / collect
    phases.
    """
    quanta = TRACE_QUANTA_S
    prof = profiler
    runs = lane_runs(lanes)
    records = ()
    n_active = len(lanes)
    n_live = len(runs)
    for k in range(lanes[0].n_steps):
        while lanes[n_active - 1].n_steps <= k:
            n_active -= 1
        while runs[n_live - 1].n_steps <= k:
            n_live -= 1
        active = lanes[:n_active]
        live = runs[:n_live]
        t_sample = k * quanta
        t0 = perf_counter() if prof is not None else 0.0
        for run in live:
            next(run.gen)
        if prof is not None:
            prof.add("schedule", perf_counter() - t0)
            t0 = perf_counter()

        # --- power at the quantum boundary (vectorized over nodes),
        # reusing a run's previous result when nothing in its trace
        # pool changed.
        changed: list[int] = []
        cpu_rows: list[np.ndarray] = []
        gpu_rows: list[np.ndarray] = []
        slot_maps: list[np.ndarray] = []
        for pid, run in enumerate(live):
            events, slot_cpu, slot_gpu = run.pool.slot_fingerprint(
                t_sample, quanta
            )
            if (
                detect
                and run.result is not None
                and events == run.last_events
                and np.array_equal(slot_cpu, run.last_cpu)
                and np.array_equal(slot_gpu, run.last_gpu)
            ):
                run.power_reuses += 1
                continue
            changed.append(pid)
            cpu_rows.append(slot_cpu)
            gpu_rows.append(slot_gpu)
            slot_maps.append(run.slot_of_node)
            run.last_events = events
            run.last_cpu = slot_cpu
            run.last_gpu = slot_gpu
        if changed:
            results = evaluate(changed, cpu_rows, gpu_rows, slot_maps)
            for pid, result in zip(changed, results):
                runs[pid].result = result
                runs[pid].power_evals += 1
        if prof is not None:
            prof.add("power", perf_counter() - t0)
            t0 = perf_counter()

        # --- cooling step (15 s coupling, Algorithm 1 line 23).
        if cool is not None:
            records = cool(t_sample, active)
            if prof is not None:
                prof.add("cooling", perf_counter() - t0)

        for lane in active:
            run = lane.run
            result = run.result
            lane.step = StepState(
                index=k,
                time_s=t_sample,
                system_power_w=result.system_power_w,
                loss_w=result.loss_w,
                sivoc_loss_w=result.sivoc_loss_w,
                rectifier_loss_w=result.rectifier_loss_w,
                chain_efficiency=result.chain_efficiency,
                utilization=run.scheduler.utilization,
                num_running=run.scheduler.num_running,
                cdu_power_w=result.cdu_power_w,
                cdu_heat_w=result.cdu_heat_w,
                cooling=records[lane.row] if lane.row >= 0 else {},
            )
        if prof is None:
            yield active
        else:
            t0 = perf_counter()
            yield active
            prof.add("collect", perf_counter() - t0)
    # Release the suspended schedule generators: a coupled lane's
    # blockage callback refers back to the lane, so an open generator
    # would keep every lane (and its recorded steps) alive in a cycle.
    for run in runs:
        run.gen.close()


def warm_cooling(
    fmu: CoolingFMU,
    spec: SystemSpec,
    wb0: float,
    warmup_s: float,
    idle,
    *,
    cache=None,
    replicas=(),
) -> None:
    """Pre-condition ``fmu``'s plant at the idle-load heat.

    Warmup is deterministic — idle heat is a pure function of the spec
    and the plant steps are pure functions of state — so a warmed
    snapshot stands in for the stepping loop bit for bit.  With a
    ``cache`` (duck-typed like
    :class:`~repro.service.warmcache.WarmStateCache`) a snapshot cached
    for (spec, wet-bulb, warmup, substep) is restored instead of
    stepping, and a miss stores the freshly warmed state.  ``replicas``
    are further FMUs of the same spec and wet-bulb that receive the same
    warmed state.  ``idle()`` returns the idle :class:`PowerResult` and
    is called only when the plant is stepped.  Every warmed FMU's clock
    is re-anchored so recorded outputs start at t=0.
    """
    if warmup_s <= 0:
        return
    snapshot = None
    if cache is not None:
        snapshot = cache.lookup(spec, wb0, warmup_s, fmu.substep_s)
    if snapshot is None:
        power = idle()
        fmu.set_cdu_heat(power.cdu_heat_w)
        fmu.set_wetbulb(wb0)
        fmu.set_system_power(power.system_power_w)
        for _ in range(int(warmup_s / TRACE_QUANTA_S)):
            fmu.do_step(fmu.time, TRACE_QUANTA_S)
        fmu._time = 0.0
        fmu._plant.time_s = 0.0
        if cache is None and not replicas:
            return
        snapshot = fmu.get_fmu_state()
        if cache is not None:
            cache.store(spec, wb0, warmup_s, fmu.substep_s, snapshot)
    else:
        replicas = (fmu, *replicas)
    for replica in replicas:
        replica.set_fmu_state(snapshot)
        replica._time = 0.0
        replica._plant.time_s = 0.0


def resident_cooling(lanes: list[Lane], profiler=None):
    """Hold the coupled ``lanes``' warmed plants resident in one kernel.

    The cooling half of both engines: the lanes' plants are gathered
    into one :class:`~repro.batch.kernel.BatchedPlantKernel` (row = lane
    order, so the active coupled lanes stay a kernel prefix) and stay
    there for the run.  Returns ``(cool, finish)``: ``cool`` is
    :func:`lane_loop`'s cooling section — it checks each active lane's
    wet-bulb as :meth:`CoolingFMU.set_wetbulb
    <repro.cooling.fmu.CoolingFMU.set_wetbulb>` would, advances the
    kernel one macro step and returns its cooling records — and
    ``finish()`` writes every lane back onto its component graph and
    leaves its FMU (clocks, inputs, outputs, ``last_state``) as if each
    step had gone through ``do_step``.  A ``profiler`` splits the
    cooling phase into ``cooling.advance`` (wet-bulb checks and the
    kernel step) and ``cooling.records``.
    """
    from repro.batch.kernel import BatchedPlantKernel

    plants = [lane.fmu._plant for lane in lanes]
    kernel = BatchedPlantKernel(plants)
    for row, lane in enumerate(lanes):
        lane.kernel, lane.row = kernel, row
    # The substep schedule of CoolingPlant.step (lanes share a substep).
    n_sub = max(1, int(np.ceil(TRACE_QUANTA_S / lanes[0].fmu.substep_s)))
    h = TRACE_QUANTA_S / n_sub

    def cool(t_sample: float, active: list[Lane]) -> list[dict]:
        rows = [lane for lane in active if lane.row >= 0]
        if not rows:
            return []
        t0 = perf_counter() if profiler is not None else 0.0
        for lane in rows:
            lane.wetbulb_c = check_wetbulb(lane.wetbulb_at(t_sample))
        kernel.advance(
            [lane.run.result.cdu_heat_w for lane in rows],
            [lane.wetbulb_c for lane in rows],
            h,
            n_sub,
            active=len(rows),
        )
        if profiler is not None:
            t1 = perf_counter()
            profiler.add("cooling.advance", t1 - t0)
        records = kernel.cooling_records(
            [lane.run.result.system_power_w for lane in rows],
            active=len(rows),
        )
        if profiler is not None:
            profiler.add("cooling.records", perf_counter() - t1)
        return records

    def finish() -> None:
        kernel.write_back(plants)
        for lane, plant in zip(lanes, plants):
            step, fmu = lane.step, lane.fmu
            if step is None:
                continue
            # TRACE_QUANTA_S is integral, so the product is exact.
            elapsed = (step.index + 1) * TRACE_QUANTA_S
            plant.time_s += elapsed
            fmu._time += elapsed
            fmu.set_cdu_heat(step.cdu_heat_w)
            fmu.set_wetbulb(lane.wetbulb_c)
            fmu.set_system_power(step.system_power_w)
            fmu.last_state = plant._snapshot(
                step.cdu_heat_w, step.system_power_w
            )
            fmu._outputs = fmu.last_state.as_output_vector()
            fmu.state = FmuState.STEPPING

    return cool, finish


class StreamingEngine:
    """The streaming engine protocol every fidelity implements.

    A subclass provides ``spec``, ``scheduler`` and an ``iter_steps``
    yielding one :class:`StepState` per trace quantum; :meth:`run`
    buffers that stream through :func:`collect_steps`, so every fidelity
    returns a shape-identical :class:`SimulationResult`.
    """

    def run(
        self,
        jobs: list[Job],
        duration_s: float,
        *,
        wetbulb: TimeSeries | float = 15.0,
        warmup_cooling_s: float = WARMUP_COOLING_S,
        events=(),
        progress=None,
        stop_when=None,
    ) -> SimulationResult:
        """Run the simulation for ``duration_s`` seconds and collect.

        A thin collector over :meth:`iter_steps` — same semantics, whole
        run buffered into a :class:`SimulationResult`.  ``progress`` is
        an optional per-step callback receiving each :class:`StepState`;
        ``stop_when`` is an optional early-stop predicate on the step
        (the step that triggers it is still recorded, then the run ends).
        """
        jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        steps = self.iter_steps(
            jobs,
            duration_s,
            wetbulb=wetbulb,
            warmup_cooling_s=warmup_cooling_s,
            events=events,
        )
        return collect_steps(
            steps,
            jobs=jobs,
            num_cdus=self.spec.cooling.num_cdus,
            scheduler_stats=self.scheduler.stats,
            progress=progress,
            stop_when=stop_when,
        )


class RapsEngine(StreamingEngine):
    """Algorithm 1: RUNSIMULATION / TICK / SCHEDULEJOBS.

    This is the low-level loop; most callers should describe their
    experiment as a :class:`~repro.scenarios.base.Scenario` and let
    ``scenario.run(twin)`` / ``scenario.iter_steps(twin)`` plan the
    workload and construct the engine — scenarios serialize, batch into
    suites, and persist into campaign artifacts.

    Parameters
    ----------
    spec:
        System description.
    chain:
        Optional conversion-chain override (what-ifs).
    with_cooling:
        Couple the cooling FMU every 15 s (paper default).  Disabling it
        triples replay speed, matching the paper's "three minutes
        without [cooling]" observation.
    honor_recorded_starts:
        Replay mode: jobs dispatch at their recorded start times.
    warm_cache:
        Optional warm-plant state cache (duck-typed like
        :class:`~repro.service.warmcache.WarmStateCache`): when a
        snapshot for (spec, wet-bulb, warmup seconds, substep) is
        cached, the cooling warmup restores it instead of re-stepping
        the plant — bit-identical, since warmup is deterministic —
        and a miss stores the freshly warmed state for the next run.
    cooling_backend:
        Plant stepping backend for the coupled cooling FMU: the fused
        flat-array kernel (``"fused"``, default) or the reference
        object graph (``"reference"``); the two are bit-identical.
    profiler:
        Optional :class:`~repro.core.profiling.PhaseProfiler`;
        when attached, each run accumulates per-phase wall time
        (warmup / schedule / power / cooling / collect).
    """

    def __init__(
        self,
        spec: SystemSpec,
        *,
        chain=None,
        with_cooling: bool = True,
        honor_recorded_starts: bool = False,
        policy: str | None = None,
        cooling_backend: str = "fused",
        down_nodes: np.ndarray | None = None,
        warm_cache=None,
        profiler=None,
    ) -> None:
        self.spec = spec
        # A chain override changes the idle heat the warmup runs at, so
        # its warmed state must not be shared with baseline runs: the
        # cache key is (spec, wetbulb, warmup, substep) only, and
        # what-if engines simply bypass the cache.
        self.warm_cache = warm_cache if chain is None else None
        self.power = SystemPowerModel(spec, chain=chain)
        self.scheduler = SchedulerEngine(
            spec.total_nodes,
            policy=policy or spec.scheduler.policy,
            honor_recorded_starts=honor_recorded_starts,
            max_queue_depth=spec.scheduler.max_queue_depth,
            down_nodes=down_nodes,
        )
        self.fmu: CoolingFMU | None = None
        if with_cooling:
            self.fmu = CoolingFMU(
                spec.cooling,
                substep_s=COOLING_SUBSTEP_S,
                backend=cooling_backend,
            )
        self.quanta = TRACE_QUANTA_S
        self.profiler = profiler
        #: Reuse the previous quantum's PowerResult when the trace-pool
        #: fingerprint is unchanged (flat traces and idle stretches then
        #: cost one O(slots) comparison instead of an O(nodes) pipeline).
        #: Flip off to force a fresh evaluation every quantum.
        self.power_change_detection = True
        #: Per-run counters (set as each iter_steps run ends).
        self.power_evals = 0
        self.power_reuses = 0
        # The idle PowerResult that seeds every cooling warmup is a pure
        # function of the spec/chain: computed once per engine, reused
        # across runs.
        self._idle_power: PowerResult | None = None

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
        """Stream the simulation one trace quantum at a time.

        Yields a :class:`StepState` per 15 s quantum as it is computed,
        enabling progress callbacks, early-stop predicates, and live
        dashboard feeds without buffering a whole run.  Closing the
        generator early is safe; :meth:`run` is a thin collector over
        this iterator and the two produce bit-identical series.

        ``jobs`` are submitted at their ``submit_time``; replay mode uses
        recorded starts.  ``wetbulb`` may be a constant or a telemetry
        series.  The cooling plant is pre-warmed at the initial load for
        ``warmup_cooling_s`` so transients reflect workload changes, not
        cold-start initialization.  ``events`` is an optional stream of
        :class:`~repro.core.events.FaultEvent`\\ s (node outages, CDU
        blockages) applied while the run advances.

        The run is the one-lane case of :func:`lane_loop`: power through
        :class:`~repro.power.system.SystemPowerModel`; cooling, on the
        fused backend, through :func:`resident_cooling` as in
        :class:`~repro.batch.engine.BatchedEngine` (the FMU is synced
        when the run ends, early close included), and on the reference
        backend through the FMU's ``do_step`` / ``get_state``.
        """
        fmu = self.fmu
        lane = Lane(self.scheduler, jobs, duration_s, wetbulb, events, fmu)
        prof = self.profiler
        if prof is not None:
            prof.begin_run()
        cool = finish = None
        if fmu is not None:
            if fmu.state is not FmuState.INSTANTIATED:
                fmu.reset()  # allow repeated runs on one engine
            fmu.setup_experiment(start_time=0.0)
            t0 = perf_counter() if prof is not None else 0.0
            warm_cooling(
                fmu,
                self.spec,
                lane.wb0,
                warmup_cooling_s,
                self._idle,
                cache=self.warm_cache,
            )
            if fmu.backend == "fused":
                cool, finish = resident_cooling([lane], prof)
            else:
                lane.row = 0
                run = lane.run

                def cool(t_sample: float, active: list[Lane]) -> tuple[dict]:
                    fmu.set_cdu_heat(run.result.cdu_heat_w)
                    fmu.set_wetbulb(lane.wetbulb_at(t_sample))
                    fmu.set_system_power(run.result.system_power_w)
                    fmu.do_step(fmu.time, TRACE_QUANTA_S)
                    state = fmu.get_state()
                    # PlantState fields are freshly allocated by each
                    # plant step, so recording can alias them directly.
                    return (
                        {key: getattr(state, key)
                         for key in DEFAULT_COOLING_RECORD},
                    )
            if prof is not None:
                prof.add("warmup", perf_counter() - t0)

        loop = lane_loop(
            [lane],
            lambda ids, cpu_rows, gpu_rows, slot_maps: (
                self.power.evaluate(cpu_rows[0], gpu_rows[0], slot_maps[0]),
            ),
            cool,
            detect=self.power_change_detection,
            profiler=prof,
        )
        try:
            for _ in loop:
                yield lane.step
        finally:
            loop.close()
            # An early close leaves the schedule generator suspended, and
            # its blockage callback refers back to the lane.
            lane.run.gen.close()
            if finish is not None:
                finish()
            self.power_evals = lane.run.power_evals
            self.power_reuses = lane.run.power_reuses
            steps_done = 0 if lane.step is None else lane.step.index + 1
            if prof is not None:
                prof.end_run(
                    steps_done,
                    power_evals=self.power_evals,
                    power_reuses=self.power_reuses,
                )
            # Fold this run's bulk counters into the process registry.
            # One call per *run*, never per quantum, so the detached
            # (NullRegistry) cost is a handful of no-op calls.
            reg = get_registry()
            if reg.enabled:
                reg.counter("repro_engine_runs_total").inc()
                reg.counter("repro_engine_steps_total").inc(steps_done)
                reg.counter("repro_engine_power_evals_total").inc(
                    self.power_evals
                )
                reg.counter("repro_engine_power_reuses_total").inc(
                    self.power_reuses
                )
                if prof is not None and prof.last_run is not None:
                    fam = reg.counter("repro_engine_phase_seconds_total")
                    for phase, secs in prof.last_run["phases"].items():
                        fam.labels(phase=phase).inc(secs)

    # -- helpers ------------------------------------------------------------------

    def _idle(self) -> PowerResult:
        """The idle PowerResult seeding every cooling warmup: a pure
        function of the spec/chain, computed once per engine and reused
        across runs."""
        if self._idle_power is None:
            n = self.power.nodes.total_nodes
            self._idle_power = self.power.evaluate(np.zeros(n), np.zeros(n))
        return self._idle_power


__all__ = [
    "RapsEngine",
    "StreamingEngine",
    "SimulationResult",
    "StepState",
    "DEFAULT_COOLING_RECORD",
    "COOLING_SUBSTEP_S",
    "WARMUP_COOLING_S",
    "ElectricalRun",
    "Lane",
    "lane_runs",
    "drive_schedule",
    "resident_cooling",
    "lane_loop",
    "collect_steps",
    "warm_cooling",
]
