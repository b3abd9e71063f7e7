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

The whole run is written once, in :func:`lane_loop`, over an active
prefix of :class:`Lane`\\ s: it warms the coupled plants, runs that
per-quantum sequence and syncs the FMUs when the run ends.
:class:`RapsEngine` is its one-lane call and
:class:`~repro.batch.engine.BatchedEngine` its B-lane call.

Each quantum's values are written once, into the run's result columns;
a :class:`SimulationResult` is a slice of them at the steps taken
(:meth:`Lane.result`) and a :class:`StepState` one row of them, built
only for a stream consumer (:meth:`Lane.state`).

A 24-hour Frontier replay runs in seconds (the paper's Modelica stack
takes ~9 minutes with cooling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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

    One row of a run's result columns (:meth:`Lane.state`), built only
    for stream consumers: the scalars are Python floats and ints,
    ``cdu_power_w`` / ``cdu_heat_w`` and the per-CDU ``cooling``
    entries are rows of the run's arrays.  ``cooling`` holds the
    recorded plant outputs for this quantum (empty when the run is
    uncoupled).
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
        """Per-slot (cpu, gpu) utilization at ``now`` (inactive slots 0).

        Each slot reads its trace at the quantum index clamped to
        ``[0, len - 1]``; every job's cpu and gpu traces have one length,
        so one clamped flat index reads both pools."""
        if not self.cpu.size:
            zeros = np.zeros(self.slot_start.size)
            return zeros, zeros.copy()
        idx = ((now - self.slot_start) // quanta).astype(np.int64)
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, self.slot_len - 1, out=idx)
        idx += self.slot_offset
        np.minimum(idx, self.cpu.size - 1, out=idx)
        slot_cpu = np.where(self.slot_active, self.cpu.take(idx), 0.0)
        slot_gpu = np.where(self.slot_active, self.gpu.take(idx), 0.0)
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


class ElectricalRun:
    """The electrical half of one run in the Algorithm-1 loop.

    Holds the scheduler the run drives, its trace pool and the
    :func:`drive_schedule` generator over both, the run's conversion
    ``chain`` (None: the spec's baseline chain), the power
    change-detection fields with the latest :class:`PowerResult`, and
    the run's result ``columns``: one preallocated array per
    electrical series of :class:`SimulationResult`, ``(T,)`` or
    ``(T, num_cdus)``, whose row ``k`` :meth:`record` writes once.
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
        num_cdus: int,
        events=(),
        chain=None,
        on_blockage=None,
    ) -> None:
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        self.scheduler = scheduler
        self.jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self.n_steps = T = int(np.ceil(duration_s / TRACE_QUANTA_S))
        # In StepState's field order (Lane.state).
        self.columns = {
            "times_s": np.arange(T) * TRACE_QUANTA_S,
            "system_power_w": np.empty(T),
            "loss_w": np.empty(T),
            "sivoc_loss_w": np.empty(T),
            "rectifier_loss_w": np.empty(T),
            "chain_efficiency": np.empty(T),
            "utilization": np.empty(T),
            "num_running": np.empty(T, dtype=np.int64),
            "cdu_power_w": np.empty((T, num_cdus)),
            "cdu_heat_w": np.empty((T, num_cdus)),
        }
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

    def record(self, k: int) -> None:
        """Write quantum ``k``'s row of the electrical columns (the
        times are written up front)."""
        result, scheduler, cols = self.result, self.scheduler, self.columns
        cols["system_power_w"][k] = result.system_power_w
        cols["loss_w"][k] = result.loss_w
        cols["sivoc_loss_w"][k] = result.sivoc_loss_w
        cols["rectifier_loss_w"][k] = result.rectifier_loss_w
        cols["chain_efficiency"][k] = result.chain_efficiency
        cols["utilization"][k] = scheduler.utilization
        cols["num_running"][k] = scheduler.num_running
        cols["cdu_power_w"][k] = result.cdu_power_w
        cols["cdu_heat_w"][k] = result.cdu_heat_w


def _row_value(value):
    """A column row entry: a Python number for a scalar, else the row."""
    return value if value.ndim else value.item()


class Lane:
    """One lane of the Algorithm-1 loop (:func:`lane_loop`).

    A lane reads its schedule, power and electrical columns from its
    :class:`ElectricalRun` ``run`` — its own, built from the arguments
    here, or another lane's when it follows that run (:meth:`attach`) —
    and holds what is its alone: the wet-bulb input and its cooling
    columns.  A coupled lane holds its cooling ``fmu``, and while
    :func:`resident_cooling` keeps its plant resident, the ``kernel``
    holding it; ``cooling`` maps each recorded field to the coupled
    lanes' shared ``(C, T, ...)`` array and ``row`` is the lane's index
    into it and into the kernel (``{}`` and -1: the lane is uncoupled).
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
        num_cdus: int,
        chain=None,
    ) -> None:
        run = ElectricalRun(
            scheduler,
            jobs,
            duration_s,
            num_cdus=num_cdus,
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
        self.cooling: dict[str, np.ndarray] = {}

    def state(self, k: int) -> StepState:
        """Quantum ``k`` of this lane as a :class:`StepState`: row ``k``
        of its columns, the scalars as Python numbers."""
        return StepState(
            k,
            *(_row_value(col[k]) for col in self.run.columns.values()),
            cooling={
                key: _row_value(block[self.row, k])
                for key, block in self.cooling.items()
            },
        )

    def result(self, steps: int) -> SimulationResult:
        """This lane's first ``steps`` quanta: slices of its columns,
        with its run's jobs and scheduler stats."""
        if steps == 0:
            raise SimulationError("run produced no steps")
        run = self.run
        return SimulationResult(
            **{name: col[:steps] for name, col in run.columns.items()},
            scheduler_stats=run.scheduler.stats,
            jobs=run.jobs,
            cooling={
                key: block[self.row, :steps]
                for key, block in self.cooling.items()
            },
        )

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
    idle,
    spec: SystemSpec,
    *,
    warmup_s: float = WARMUP_COOLING_S,
    warm_cache=None,
    detect: bool = True,
    profiler=None,
) -> Iterator[tuple[int, list[Lane]]]:
    """Algorithm 1 for B lanes, written once: warm, couple, sync.

    Before the first quantum it warms the coupled lanes' plants: lanes
    sharing (chain, initial wet-bulb) form one warm group of
    :func:`warm_cooling` — ``idle(pid)`` giving run ``pid``'s idle
    :class:`PowerResult`, ``warm_cache`` serving the baseline chain only
    — whose cold groups settle together.  Fused plants are then held resident
    through :func:`resident_cooling`; reference plants step through
    their FMU's ``do_step`` / ``get_state`` (:func:`reference_cooling`).

    Each quantum ``k`` it advances the schedule of every active
    electrical run (:func:`lane_runs`), fingerprints the run's trace
    pool and either reuses its previous power result or evaluates it —
    the changed runs in one ``evaluate(ids, cpu_rows, gpu_rows,
    slot_maps)`` call, ``ids`` being positions in ``lane_runs(lanes)``,
    the rows per-slot utilizations and the maps each run's node-to-slot
    map — then steps cooling, which writes row ``k`` of the coupled
    lanes' cooling columns, writes row ``k`` of every live run's
    electrical columns and yields ``(k, active lanes)``.  Lanes sharing
    a run share its schedule, power work and electrical columns; each
    keeps its own plant, wet-bulb and cooling row.  When the loop ends —
    normally, on an error or by an early close — it closes every run's
    schedule generator and syncs the FMUs to the steps taken.

    ``lanes`` are ordered longest-first so the lanes still running are
    always a prefix (the batched plant kernel requires it); a run's
    lanes have its length, so the live runs are a prefix too.  One lane
    is :class:`RapsEngine`; B lanes are
    :class:`~repro.batch.engine.BatchedEngine`.  ``detect=False``
    evaluates every quantum (the change-detection oracle); a
    ``profiler`` accumulates the warmup / schedule / power / cooling /
    collect phases (``collect``: the electrical row writes and the
    consumer's work between yields).
    """
    quanta = TRACE_QUANTA_S
    prof = profiler
    runs = lane_runs(lanes)
    cool = finish = None
    done = 0
    try:
        coupled = [lane for lane in lanes if lane.fmu is not None]
        if coupled:
            t0 = perf_counter()
            groups: dict[tuple, list[Lane]] = {}
            for lane in coupled:
                key = (id(lane.run.chain), lane.wb0)
                groups.setdefault(key, []).append(lane)
            # The cache key has no chain, and a chain override changes
            # the idle heat the warmup runs at: only the baseline chain
            # shares warmed state through the cache.
            warm_cooling(
                [
                    (
                        [lane.fmu for lane in group],
                        group[0].wb0,
                        partial(idle, runs.index(group[0].run)),
                        warm_cache if group[0].run.chain is None else None,
                    )
                    for group in groups.values()
                ],
                spec,
                warmup_s,
            )
            # One (C, T, ...) array per recorded field: the per-CDU
            # fields gain the CDU axis, the staged counts are int64.
            n_cdus = spec.cooling.num_cdus
            block = {
                key: np.empty(
                    (len(coupled), coupled[0].n_steps)
                    + ((n_cdus,) if key.startswith("cdu_") else ()),
                    dtype=np.int64 if key.startswith("num_") else np.float64,
                )
                for key in DEFAULT_COOLING_RECORD
            }
            for row, lane in enumerate(coupled):
                lane.row, lane.cooling = row, block
            if coupled[0].fmu.backend == "fused":
                cool, finish = resident_cooling(coupled, block, prof)
            else:
                cool = reference_cooling(coupled, block)
            if prof is not None:
                prof.add("warmup", perf_counter() - t0)
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
                cool(k, t_sample, active)
                if prof is not None:
                    t1 = perf_counter()
                    prof.add("cooling", t1 - t0)
                    t0 = t1

            for run in live:
                run.record(k)
            done = k + 1
            yield k, active
            if prof is not None:
                prof.add("collect", perf_counter() - t0)
    finally:
        # Release the suspended schedule generators: a coupled lane's
        # blockage callback refers back to the lane, so an open
        # generator would keep every lane (and its columns) alive in a
        # cycle.
        for run in runs:
            run.gen.close()
        if finish is not None:
            finish(done)


def warm_cooling(groups, spec: SystemSpec, warmup_s: float) -> None:
    """Pre-condition coupled plants at their idle-load heat.

    ``groups`` holds one ``(fmus, wb0, idle, cache)`` per warm group:
    FMUs of ``spec`` that start from one warmed state at initial
    wet-bulb ``wb0``, ``idle()`` returning the group's idle
    :class:`PowerResult` (called only when the group is stepped), and
    the group's warm cache or None.  Warmup is deterministic — idle
    heat is a pure function of the spec and chain, and the plant steps
    are pure functions of state — so a warmed snapshot stands in for
    the stepping loop bit for bit.  A group with a ``cache`` (duck-typed
    like :class:`~repro.service.warmcache.WarmStateCache`) looks up the
    snapshot for (spec, wet-bulb, warmup, substep) once and restores it.
    Every other group is cold: its first FMU takes the idle inputs, and
    all cold first FMUs settle together through :meth:`CoolingFMU.settle`
    (fused: one resident kernel, gathered and written back once).  A
    cold group then stores its warmed state in its cache and hands it
    to the group's other FMUs.  Every warmed FMU's clock is re-anchored
    so recorded outputs start at t=0.
    """
    if warmup_s <= 0:
        return
    cold = []
    for fmus, wb0, idle, cache in groups:
        fmu = fmus[0]
        snapshot = None
        if cache is not None:
            snapshot = cache.lookup(spec, wb0, warmup_s, fmu.substep_s)
        if snapshot is not None:
            _restore_warm(fmus, snapshot)
            continue
        power = idle()
        fmu.set_cdu_heat(power.cdu_heat_w)
        fmu.set_wetbulb(wb0)
        fmu.set_system_power(power.system_power_w)
        cold.append((fmus, wb0, cache))
    CoolingFMU.settle(
        [fmus[0] for fmus, _, _ in cold],
        int(warmup_s / TRACE_QUANTA_S),
        TRACE_QUANTA_S,
    )
    for (fmu, *replicas), wb0, cache in cold:
        fmu._time = 0.0
        fmu._plant.time_s = 0.0
        if cache is None and not replicas:
            continue
        snapshot = fmu.get_fmu_state()
        if cache is not None:
            cache.store(spec, wb0, warmup_s, fmu.substep_s, snapshot)
        _restore_warm(replicas, snapshot)


def _restore_warm(fmus, snapshot) -> None:
    """Give each of ``fmus`` a warmed ``snapshot``, clocks at t=0."""
    for fmu in fmus:
        fmu.set_fmu_state(snapshot)
        fmu._time = 0.0
        fmu._plant.time_s = 0.0


def resident_cooling(lanes: list[Lane], block: dict, profiler=None):
    """Hold the coupled ``lanes``' warmed plants resident in one kernel.

    The cooling half of both engines: the lanes' plants are gathered
    into one :class:`~repro.batch.kernel.BatchedPlantKernel` (kernel
    row = the lane's ``row``, so the active coupled lanes stay a kernel
    prefix) and stay there for the run.  Returns ``(cool, finish)``:
    ``cool(k, t_sample, active)`` is :func:`lane_loop`'s cooling
    section — it checks each active lane's wet-bulb as
    :meth:`CoolingFMU.set_wetbulb
    <repro.cooling.fmu.CoolingFMU.set_wetbulb>` would, advances the
    kernel one macro step and writes the kernel's record columns into
    column ``k`` of ``block`` — and ``finish(done)`` writes every lane
    back onto its component graph and leaves its FMU (clocks, inputs,
    ``last_state``) as if each of the lane's steps among the
    first ``done`` quanta had gone through ``do_step``.  A ``profiler``
    splits the cooling phase into ``cooling.advance`` (wet-bulb checks
    and the kernel step) and ``cooling.records``.
    """
    from repro.batch.kernel import BatchedPlantKernel

    plants = [lane.fmu._plant for lane in lanes]
    kernel = BatchedPlantKernel(plants)
    for lane in lanes:
        lane.kernel = kernel
    # The substep schedule of CoolingPlant.step (lanes share a substep).
    n_sub = max(1, int(np.ceil(TRACE_QUANTA_S / lanes[0].fmu.substep_s)))
    h = TRACE_QUANTA_S / n_sub

    def cool(k: int, t_sample: float, active: list[Lane]) -> None:
        rows = [lane for lane in active if lane.row >= 0]
        if not rows:
            return
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
        columns = kernel.cooling_records(
            [lane.run.result.system_power_w for lane in rows],
            active=len(rows),
        )
        for key, column in columns.items():
            block[key][:len(rows), k] = column
        if profiler is not None:
            profiler.add("cooling.records", perf_counter() - t1)

    def finish(done: int) -> None:
        kernel.write_back(plants)
        for lane, plant in zip(lanes, plants):
            steps, fmu = min(lane.n_steps, done), lane.fmu
            if steps == 0:
                continue
            # The lane's last step's heat and power, from its columns.
            cols = lane.run.columns
            heat = cols["cdu_heat_w"][steps - 1].copy()
            power = cols["system_power_w"][steps - 1].item()
            # TRACE_QUANTA_S is integral, so the product is exact.
            elapsed = steps * TRACE_QUANTA_S
            plant.time_s += elapsed
            fmu._time += elapsed
            fmu.set_cdu_heat(heat)
            fmu.set_wetbulb(lane.wetbulb_c)
            fmu.set_system_power(power)
            fmu.last_state = plant._snapshot(heat, power)
            fmu.state = FmuState.STEPPING

    return cool, finish


def reference_cooling(lanes: list[Lane], block: dict):
    """:func:`lane_loop`'s cooling section for reference-backend plants.

    ``cool(k, t_sample, active)`` steps each active coupled lane's FMU
    through ``do_step`` with the lane's heat, wet-bulb and system power,
    and writes its ``get_state`` fields into column ``k`` of ``block``,
    so every FMU is in sync after each step.
    """

    def cool(k: int, t_sample: float, active: list[Lane]) -> None:
        states = []
        for lane in active:
            if lane.row < 0:
                continue
            fmu, result = lane.fmu, lane.run.result
            fmu.set_cdu_heat(result.cdu_heat_w)
            fmu.set_wetbulb(lane.wetbulb_at(t_sample))
            fmu.set_system_power(result.system_power_w)
            fmu.do_step(fmu.time, TRACE_QUANTA_S)
            states.append(fmu.get_state())
        if not states:
            return
        for key, column in block.items():
            column[:len(states), k] = [getattr(st, key) for st in states]

    return cool


class StreamingEngine:
    """The streaming engine protocol every fidelity implements.

    A subclass provides ``spec``, ``scheduler`` and ``_lane_steps``,
    returning the run's :class:`Lane` and an iterator that yields each
    quantum ``k`` once row ``k`` of the lane's columns is written, so
    every fidelity returns a shape-identical :class:`SimulationResult`
    and streams its rows.
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
        """Run the simulation for ``duration_s`` seconds.

        :meth:`iter_steps`' run, returned as a :class:`SimulationResult`.
        ``progress`` is an optional per-step callback receiving each
        :class:`StepState`; ``stop_when`` is an optional early-stop
        predicate on the step (the step that triggers it is still
        recorded, then the run ends).  Without either, no
        :class:`StepState` is built.
        """
        lane, steps = self._lane_steps(
            jobs, duration_s, wetbulb, warmup_cooling_s, events
        )
        streamed = progress is not None or stop_when is not None
        taken = 0
        try:
            for taken, k in enumerate(steps, 1):
                if not streamed:
                    continue
                step = lane.state(k)
                if progress is not None:
                    progress(step)
                if stop_when is not None and stop_when(step):
                    break
        finally:
            steps.close()
        return lane.result(taken)

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
        generator early is safe; the rows are those of :meth:`run`'s
        result, bit for bit.

        ``jobs`` are submitted at their ``submit_time``; replay mode uses
        recorded starts.  ``wetbulb`` may be a constant or a telemetry
        series.  The cooling plant is pre-warmed at the initial load for
        ``warmup_cooling_s`` so transients reflect workload changes, not
        cold-start initialization.  ``events`` is an optional stream of
        :class:`~repro.core.events.FaultEvent`\\ s (node outages, CDU
        blockages) applied while the run advances.
        """
        lane, steps = self._lane_steps(
            jobs, duration_s, wetbulb, warmup_cooling_s, events
        )
        try:
            for k in steps:
                yield lane.state(k)
        finally:
            steps.close()


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
        Only baseline-chain runs use it (see :func:`lane_loop`).
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
        self.chain = chain
        self.warm_cache = warm_cache
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

    # -- main loop ------------------------------------------------------------

    def _lane_steps(self, jobs, duration_s, wetbulb, warmup_cooling_s, events):
        """The run as the one-lane call of :func:`lane_loop`, with power
        through :class:`~repro.power.system.SystemPowerModel`; on the
        fused backend the FMU is synced when the run ends (early close
        included), on the reference backend after every step."""
        lane = Lane(
            self.scheduler, jobs, duration_s, wetbulb, events, self.fmu,
            num_cdus=self.spec.cooling.num_cdus, chain=self.chain,
        )
        return lane, self._steps(lane, warmup_cooling_s)

    def _steps(self, lane: Lane, warmup_cooling_s: float) -> Iterator[int]:
        fmu = self.fmu
        prof = self.profiler
        if prof is not None:
            prof.begin_run()
        if fmu is not None:
            if fmu.state is not FmuState.INSTANTIATED:
                fmu.reset()  # allow repeated runs on one engine
            fmu.setup_experiment(start_time=0.0)
        loop = lane_loop(
            [lane],
            lambda ids, cpu_rows, gpu_rows, slot_maps: (
                self.power.evaluate(cpu_rows[0], gpu_rows[0], slot_maps[0]),
            ),
            lambda pid: self.power.idle(),
            self.spec,
            warmup_s=warmup_cooling_s,
            warm_cache=self.warm_cache,
            detect=self.power_change_detection,
            profiler=prof,
        )
        steps_done = 0
        try:
            for k, _ in loop:
                steps_done = k + 1
                yield k
        finally:
            loop.close()
            self.power_evals = lane.run.power_evals
            self.power_reuses = lane.run.power_reuses
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
    "reference_cooling",
    "lane_loop",
    "warm_cooling",
]
