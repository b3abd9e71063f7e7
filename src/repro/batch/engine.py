"""Lane-parallel scenario execution: B engine runs, one set of array calls.

:class:`BatchedEngine` advances B scenario instances together.  Each
lane keeps its own scheduler, trace pool, fault stream, and change
detection — the event-driven half of Algorithm 1 is cheap, per-lane
Python — while the array math is batched across lanes:

- the power pipeline evaluates only the lanes whose trace-pool
  fingerprint changed this quantum, as one
  :class:`~repro.batch.power.BatchedPowerModel` call;
- the cooling plants advance as one
  :class:`~repro.batch.kernel.BatchedPlantKernel` macro step, which
  holds every coupled lane's plant state for the whole run and builds
  the step's cooling records in batch form;
- cooling warmup is shared: lanes with the same (spec, wet-bulb,
  warmup) warm once and replicate the warmed snapshot — the warm-cache
  mechanism, applied across lanes, honoring ``twin.warm_cache`` when
  one is attached.

Every lane's :class:`~repro.core.engine.StepState` stream is
**bit-identical** to what a serial :class:`~repro.core.engine.RapsEngine`
run of the same scenario would produce; the differential test suite
(`tests/test_batch_differential.py`) enforces exactness across the
scenario library.

Scenarios a lane cannot represent — surrogate fidelity, conversion-chain
what-ifs, or scenario classes overriding the run protocol (sweep
containers) — fall back to ``scenario.run(twin)`` serially, so
``run_batched`` accepts any scenario list and always returns correct
results.

Lanes are sorted longest-first so finished lanes drop off the batch
tail (active lanes stay a contiguous prefix, which the batched kernel
requires); results are returned in the caller's order.
"""

from __future__ import annotations

import numpy as np

from repro.batch.kernel import BatchedPlantKernel
from repro.batch.power import BatchedPowerModel
from repro.cooling.fmu import CoolingFMU
from repro.core.engine import (
    StepState,
    _TracePool,
    collect_steps,
    drive_schedule,
)
from repro.core.events import sort_events
from repro.obs.registry import get_registry
from repro.scenarios.base import RunPlan, Scenario
from repro.scenarios.result import ScenarioResult
from repro.scenarios.twin import DigitalTwin, as_twin
from repro.scheduler.engine import SchedulerEngine
from repro.telemetry.dataset import TimeSeries
from repro.telemetry.replay import ReplayCursor
from repro.telemetry.schema import TRACE_QUANTA_S

#: The plant integration substep every batched lane runs at (the
#: engine-wide default; lanes in one batch share the substep loop).
COOLING_SUBSTEP_S = 3.0


class _Lane:
    """One scenario instance inside the batch."""

    def __init__(
        self, index: int, scenario: Scenario, twin: DigitalTwin, plan: RunPlan
    ) -> None:
        self.index = index  # caller-order position
        self.scenario = scenario
        self.twin = twin
        self.plan = plan
        self.jobs = sorted(plan.jobs, key=lambda j: (j.submit_time, j.job_id))
        self.n_steps = int(np.ceil(plan.duration_s / TRACE_QUANTA_S))
        spec = twin.spec
        self.spec = spec
        self.scheduler = SchedulerEngine(
            spec.total_nodes,
            policy=scenario.policy or spec.scheduler.policy,
            allocation="contiguous",
            honor_recorded_starts=plan.honor_recorded,
            max_queue_depth=spec.scheduler.max_queue_depth,
            down_nodes=None,
        )
        self.pool = _TracePool(self.jobs)
        self.slot_of_node = self.scheduler.allocator.slot_of_node
        self.events = sort_events(plan.events) if plan.events else ()
        self.wetbulb = plan.wetbulb
        self.wb_cursor = (
            ReplayCursor(plan.wetbulb, method="linear")
            if isinstance(plan.wetbulb, TimeSeries)
            else None
        )
        self.wb0 = (
            float(plan.wetbulb.values[0])
            if isinstance(plan.wetbulb, TimeSeries)
            else float(plan.wetbulb)
        )
        self.fmu: CoolingFMU | None = None
        #: The batched plant kernel holding this lane's plant state and
        #: the lane's row in it (set once the kernel is built).
        self.kernel: BatchedPlantKernel | None = None
        self.row = -1
        if scenario.with_cooling:
            self.fmu = CoolingFMU(
                spec.cooling, substep_s=COOLING_SUBSTEP_S, backend="fused"
            )
            self.fmu.setup_experiment(start_time=0.0)
        self.gen = drive_schedule(
            self.scheduler,
            self.pool,
            self.jobs,
            self.n_steps,
            TRACE_QUANTA_S,
            events=self.events,
            on_event=self._fault_handler() if self.events else None,
        )
        # Per-lane power change detection (mirrors RapsEngine).
        self.result = None
        self.last_result = None
        self.last_events = -1
        self.last_cpu: np.ndarray | None = None
        self.last_gpu: np.ndarray | None = None
        self.steps: list[StepState] = []

    def _fault_handler(self):
        """Per-lane mirror of ``RapsEngine._fault_handler``."""

        def apply(event, now: float) -> None:
            if event.kind == "node-down":
                nodes = np.asarray(event.nodes, dtype=np.int64)
                for job in self.scheduler.fail_nodes(
                    nodes, now, kill_running=event.kill_running
                ):
                    self.pool.stop(job)
            elif event.kind == "node-up":
                self.scheduler.restore_nodes(
                    np.asarray(event.nodes, dtype=np.int64)
                )
            elif event.kind == "cdu-blockage":
                if self.fmu is not None:
                    self.fmu.set_cdu_blockage(event.cdu_index, event.severity)
                    self.kernel.set_blockage(
                        self.row, event.cdu_index, event.severity
                    )

        return apply

    def wetbulb_at(self, t_sample: float) -> float:
        if self.wb_cursor is not None:
            return float(np.asarray(self.wb_cursor.value(t_sample)))
        return float(self.wetbulb)


def _laneable(scenario: Scenario, twin: DigitalTwin) -> bool:
    """Whether a scenario can run as a batch lane.

    Lanes replicate the base ``Scenario.run`` protocol over a full-
    fidelity :class:`~repro.core.engine.RapsEngine`; anything that
    customizes execution (sweep containers, surrogate fidelity) falls
    back to serial.  Chain overrides are checked post-plan.
    """
    cls = type(scenario)
    return (
        cls.run is Scenario.run
        and cls.iter_steps is Scenario.iter_steps
        and cls.build_engine is Scenario.build_engine
        and scenario.effective_fidelity(twin) == "full"
    )


class BatchedEngine:
    """Run B scenarios lane-parallel, bit-identical to serial runs.

    Parameters
    ----------
    scenarios:
        The scenario instances to execute.
    twin:
        The shared digital twin (anything :func:`as_twin` accepts).
    twins:
        Optional per-lane twin list overriding ``twin`` — lanes may
        target heterogeneous systems; narrower lanes are padded to the
        widest (see :mod:`repro.batch.kernel`).
    warmup_cooling_s:
        Cooling warmup horizon per lane (engine default 1800 s).
    """

    def __init__(
        self,
        scenarios,
        twin=None,
        *,
        twins=None,
        warmup_cooling_s: float = 1800.0,
    ) -> None:
        self.scenarios = list(scenarios)
        if twins is None:
            if twin is None:
                raise ValueError("BatchedEngine needs a twin (or twins)")
            shared = as_twin(twin)
            self.twins = [shared] * len(self.scenarios)
        else:
            self.twins = [as_twin(t) for t in twins]
            if len(self.twins) != len(self.scenarios):
                raise ValueError("twins must align with scenarios")
        self.warmup_cooling_s = float(warmup_cooling_s)
        self.quanta = TRACE_QUANTA_S
        #: Per-run counters, aggregated over lanes (bench observability).
        self.power_evals = 0
        self.power_reuses = 0

    # -- execution ---------------------------------------------------------------

    def run(self, *, progress=None, on_step=None) -> list[ScenarioResult]:
        """Execute all scenarios; results in input order.

        ``progress`` is an optional ``(done, total)`` callback fired as
        lanes finish collection (and per serial fallback).
        ``on_step(index, step)`` streams every
        :class:`~repro.core.engine.StepState` as it is produced, tagged
        with the scenario's caller-order index (the service layer's
        live step transport; lanes interleave, each lane's own stream
        stays in step order).
        """
        total = len(self.scenarios)
        out: list[ScenarioResult | None] = [None] * total
        done = 0
        lanes: list[_Lane] = []
        fallback: list[int] = []
        for index, (scenario, twin) in enumerate(
            zip(self.scenarios, self.twins)
        ):
            if not _laneable(scenario, twin):
                fallback.append(index)
                continue
            plan = scenario.plan(twin)
            if plan.chain is not None:
                fallback.append(index)
                continue
            lanes.append(_Lane(index, scenario, twin, plan))

        if lanes:
            self._run_lanes(lanes, on_step=on_step)
        for lane in lanes:
            result = collect_steps(
                iter(lane.steps),
                jobs=lane.jobs,
                num_cdus=lane.spec.cooling.num_cdus,
                scheduler_stats=lane.scheduler.stats,
            )
            out[lane.index] = lane.scenario._finish(lane.twin, result)
            done += 1
            if progress is not None:
                progress(done, total)
        for index in fallback:
            fallback_progress = None
            if on_step is not None:
                fallback_progress = (
                    lambda step, _i=index: on_step(_i, step)
                )
            out[index] = self.scenarios[index].run(
                self.twins[index], progress=fallback_progress
            )
            done += 1
            if progress is not None:
                progress(done, total)
        return out  # type: ignore[return-value]

    # -- internals ---------------------------------------------------------------

    def _run_lanes(self, lanes: list[_Lane], on_step=None) -> None:
        # Longest lanes first: active lanes stay a contiguous batch
        # prefix as shorter lanes finish (sort is stable, so equal
        # lengths keep caller order).
        lanes.sort(key=lambda lane: -lane.n_steps)
        power = BatchedPowerModel([lane.spec for lane in lanes])
        coupled = [lane for lane in lanes if lane.fmu is not None]
        self._warmup(lanes, power)
        kernel = (
            BatchedPlantKernel([lane.fmu._plant for lane in coupled])
            if coupled
            else None
        )
        for row, lane in enumerate(coupled):
            lane.kernel, lane.row = kernel, row
        # One shared substep schedule (mirrors CoolingPlant.step).
        n_sub = max(1, int(np.ceil(self.quanta / COOLING_SUBSTEP_S)))
        h = self.quanta / n_sub

        self.power_evals = 0
        self.power_reuses = 0
        max_steps = max(lane.n_steps for lane in lanes)
        n_active = len(lanes)
        n_cool = len(coupled)
        heat_rows: list[np.ndarray] = []
        wbs: list[float] = []
        powers: list[float] = []
        records: list[dict] = []
        reg = get_registry()
        lanes_gauge = (
            reg.gauge("repro_batch_lanes_active") if reg.enabled else None
        )
        lane_steps = 0
        padded_steps = 0
        for k in range(max_steps):
            while n_active > 0 and lanes[n_active - 1].n_steps <= k:
                n_active -= 1
            while n_cool > 0 and coupled[n_cool - 1].n_steps <= k:
                n_cool -= 1
            lane_steps += n_active
            padded_steps += len(lanes) - n_active
            if lanes_gauge is not None:
                lanes_gauge.set(n_active)
            active = lanes[:n_active]
            t_sample = k * self.quanta
            for lane in active:
                next(lane.gen)

            # --- power: fingerprint every active lane, batch-evaluate
            # the changed subset (RapsEngine change detection, per lane).
            changed: list[_Lane] = []
            changed_ids: list[int] = []
            cpu_rows: list[np.ndarray] = []
            gpu_rows: list[np.ndarray] = []
            fingerprints: list[tuple] = []
            for pid, lane in enumerate(active):
                ev, slot_cpu, slot_gpu = lane.pool.slot_fingerprint(
                    t_sample, self.quanta
                )
                if (
                    lane.last_result is not None
                    and ev == lane.last_events
                    and np.array_equal(slot_cpu, lane.last_cpu)
                    and np.array_equal(slot_gpu, lane.last_gpu)
                ):
                    lane.result = lane.last_result
                    self.power_reuses += 1
                else:
                    node_cpu, node_gpu = lane.pool.node_utils_from(
                        slot_cpu, slot_gpu, lane.slot_of_node
                    )
                    changed.append(lane)
                    changed_ids.append(pid)
                    cpu_rows.append(node_cpu)
                    gpu_rows.append(node_gpu)
                    fingerprints.append((ev, slot_cpu, slot_gpu))
            if changed:
                results = power.evaluate(changed_ids, cpu_rows, gpu_rows)
                self.power_evals += len(changed)
                for lane, result, fp in zip(changed, results, fingerprints):
                    lane.result = result
                    lane.last_result = result
                    lane.last_events, lane.last_cpu, lane.last_gpu = fp

            # --- cooling: one batched plant macro step over the active
            # coupled prefix, then its cooling records in batch form
            # from the kernel's resident state.
            if n_cool:
                heat_rows.clear()
                wbs.clear()
                powers.clear()
                for lane in coupled[:n_cool]:
                    heat_rows.append(lane.result.cdu_heat_w)
                    wbs.append(lane.wetbulb_at(t_sample))
                    powers.append(lane.result.system_power_w)
                kernel.advance(heat_rows, wbs, h, n_sub, active=n_cool)
                records = kernel.cooling_records(powers, active=n_cool)

            for lane in active:
                cooling = records[lane.row] if lane.fmu is not None else {}
                result = lane.result
                step = StepState(
                    index=k,
                    time_s=t_sample,
                    system_power_w=result.system_power_w,
                    loss_w=result.loss_w,
                    sivoc_loss_w=result.sivoc_loss_w,
                    rectifier_loss_w=result.rectifier_loss_w,
                    chain_efficiency=result.chain_efficiency,
                    utilization=lane.scheduler.utilization,
                    num_running=lane.scheduler.num_running,
                    cdu_power_w=result.cdu_power_w,
                    cdu_heat_w=result.cdu_heat_w,
                    cooling=cooling,
                )
                lane.steps.append(step)
                if on_step is not None:
                    on_step(lane.index, step)
        for lane in lanes:
            lane.gen.close()
        if kernel is not None:
            # Sync the component graphs once; the FMU clock and last
            # state then read as if every step had gone through do_step
            # (TRACE_QUANTA_S is integral, so the product is exact).
            kernel.write_back()
            for lane in coupled:
                plant = lane.fmu._plant
                elapsed = lane.n_steps * self.quanta
                plant.time_s += elapsed
                lane.fmu._time += elapsed
                lane.fmu.last_state = plant._snapshot(
                    lane.result.cdu_heat_w, lane.result.system_power_w
                )
        if reg.enabled:
            # Bulk fold at end of sweep; lanes drive the scheduler
            # directly (not iter_steps), so these batch-level counters
            # are the only registry traffic for laned execution.
            reg.counter("repro_batch_runs_total").inc()
            reg.counter("repro_batch_lane_steps_total").inc(lane_steps)
            reg.counter("repro_batch_padded_lane_steps_total").inc(
                padded_steps
            )

    def _warmup(self, lanes: list[_Lane], power: BatchedPowerModel) -> None:
        """Shared cooling warmup: warm one lane per group, replicate.

        Warmup is deterministic — idle heat is a pure function of the
        spec, plant steps pure functions of state — so lanes sharing
        (spec, initial wet-bulb) share one warmed snapshot, captured
        and restored through the same ``get_fmu_state``/``set_fmu_state``
        capsule the warm cache uses.  A ``twin.warm_cache`` is honored:
        hits skip the warmup stepping entirely, misses store for later.
        """
        warmup_s = self.warmup_cooling_s
        if warmup_s <= 0:
            return
        groups: dict[tuple, list[tuple[int, _Lane]]] = {}
        for pid, lane in enumerate(lanes):
            if lane.fmu is None:
                continue
            groups.setdefault((id(lane.spec), lane.wb0), []).append(
                (pid, lane)
            )
        for members in groups.values():
            pid0, first = members[0]
            fmu = first.fmu
            cache = getattr(first.twin, "warm_cache", None)
            snapshot = None
            if cache is not None:
                snapshot = cache.lookup(
                    first.spec, first.wb0, warmup_s, fmu.substep_s
                )
            if snapshot is None:
                idle = power.idle_power(pid0)
                steps = int(warmup_s / self.quanta)
                fmu.set_cdu_heat(idle.cdu_heat_w)
                fmu.set_wetbulb(first.wb0)
                fmu.set_system_power(idle.system_power_w)
                for _ in range(steps):
                    fmu.do_step(fmu.time, self.quanta)
                fmu._time = 0.0
                fmu._plant.time_s = 0.0
                snapshot = fmu.get_fmu_state()
                if cache is not None:
                    cache.store(
                        first.spec, first.wb0, warmup_s,
                        fmu.substep_s, snapshot,
                    )
                rest = members[1:]
            else:
                rest = members
            for _, lane in rest:
                lane.fmu.set_fmu_state(snapshot)
                lane.fmu._time = 0.0
                lane.fmu._plant.time_s = 0.0


def run_batched(
    scenarios,
    twin=None,
    *,
    twins=None,
    warmup_cooling_s: float = 1800.0,
    progress=None,
) -> list[ScenarioResult]:
    """Execute ``scenarios`` against ``twin`` with the batched engine.

    Convenience wrapper over :class:`BatchedEngine`; results come back
    in input order and are bit-identical to ``scenario.run(twin)``.
    """
    engine = BatchedEngine(
        scenarios, twin, twins=twins, warmup_cooling_s=warmup_cooling_s
    )
    return engine.run(progress=progress)


__all__ = ["BatchedEngine", "run_batched", "COOLING_SUBSTEP_S"]
