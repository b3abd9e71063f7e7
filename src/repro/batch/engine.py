"""Lane-parallel scenario execution: B engine runs, one set of array calls.

:class:`BatchedEngine` runs B scenario instances through the same
per-quantum loop as the serial engine, :func:`~repro.core.engine.lane_loop`,
with B lanes instead of one.  Each lane keeps its own scheduler, trace
pool, fault stream and change detection (the event-driven half of
Algorithm 1 is cheap, per-lane Python); what this module adds is the
batched half:

- lane ordering: lanes run longest-first, so finished lanes drop off the
  batch tail and the active lanes stay a contiguous prefix;
- power: the lanes whose trace-pool fingerprint changed this quantum are
  evaluated in one :class:`~repro.batch.power.BatchedPowerModel` call;
- cooling: the coupled plants advance as one
  :class:`~repro.batch.kernel.BatchedPlantKernel` macro step through
  :func:`~repro.core.engine.resident_cooling` (the serial engine's
  cooling path too), which holds every coupled lane's plant state for
  the whole run, builds each step's cooling records in batch form and
  writes the state back onto the component graphs when the run ends;
- warmup: lanes with the same (chain, wet-bulb) warm once through
  :func:`~repro.core.engine.warm_cooling` and replicate the warmed
  snapshot, honoring ``twin.warm_cache`` (baseline chain only).

Each planned run (:meth:`~repro.scenarios.base.Scenario.plans`) is one
lane: a what-if is two, the modified one carrying its own conversion
chain.  Every lane's :class:`~repro.core.engine.StepState` stream is
**bit-identical** to the matching serial ``scenario.run(twin)`` run;
the differential test suite (`tests/test_batch_differential.py`)
enforces exactness across the scenario library.

A batch is one system: every lane runs on ``twin.spec``, so the
plant kernel's rows share one CDU count.  Scenarios a lane cannot
represent — surrogate fidelity, a reference-backend twin, or scenario
classes overriding the run protocol (sweep containers) — fall back to
``scenario.run(twin)`` serially, so ``run_batched`` accepts any
scenario list and always returns correct results, in the caller's
order.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter

from repro.batch.power import BatchedPowerModel
from repro.cooling.fmu import CoolingFMU
from repro.core.engine import (
    Lane,
    StepState,
    collect_steps,
    lane_loop,
    resident_cooling,
    warm_cooling,
)
from repro.obs.registry import get_registry
from repro.scenarios.base import RunPlan, Scenario
from repro.scenarios.result import ScenarioResult
from repro.scenarios.twin import DigitalTwin, as_twin
from repro.scheduler.engine import SchedulerEngine

#: The plant integration substep every batched lane runs at (the
#: engine-wide default; lanes in one batch share the substep loop).
COOLING_SUBSTEP_S = 3.0

#: Cooling warmup horizon per lane (the serial engine's default).
WARMUP_COOLING_S = 1800.0


class _Lane(Lane):
    """One scenario instance inside the batch."""

    def __init__(
        self, index: int, scenario: Scenario, twin: DigitalTwin, plan: RunPlan
    ) -> None:
        self.index = index  # caller-order position
        self.scenario = scenario
        spec = twin.spec
        fmu = None
        if scenario.with_cooling:
            fmu = CoolingFMU(
                spec.cooling, substep_s=COOLING_SUBSTEP_S, backend="fused"
            )
            fmu.setup_experiment(start_time=0.0)
        self.chain = plan.chain
        super().__init__(
            SchedulerEngine(
                spec.total_nodes,
                policy=scenario.policy or spec.scheduler.policy,
                allocation="contiguous",
                honor_recorded_starts=plan.honor_recorded,
                max_queue_depth=spec.scheduler.max_queue_depth,
                down_nodes=None,
            ),
            plan.jobs,
            plan.duration_s,
            plan.wetbulb,
            plan.events,
            fmu,
        )
        self.steps: list[StepState] = []
        # The scenario's neighbouring planned runs, and the steps sent.
        self.prev: _Lane | None = None
        self.next: _Lane | None = None
        self.sent = 0

    def forward(self, on_step) -> None:
        """Send this lane's new steps to ``on_step`` once the scenario's
        earlier runs are sent in full (a scenario streams in plan order)."""
        if self.prev is not None and self.prev.sent < self.prev.n_steps:
            return
        for step in self.steps[self.sent:]:
            on_step(self.index, step)
        self.sent = len(self.steps)
        if self.next is not None and self.sent == self.n_steps:
            self.next.forward(on_step)


def _laneable(scenario: Scenario, twin: DigitalTwin) -> bool:
    """Whether a scenario can run as a batch lane.

    Lanes replicate the base ``Scenario.run`` protocol over a full-
    fidelity :class:`~repro.core.engine.RapsEngine` with the fused
    cooling backend (the plant kernel); anything that customizes
    execution (sweep containers, surrogate fidelity, a reference-backend
    twin) falls back to serial.
    """
    cls = type(scenario)
    return (
        cls.run is Scenario.run
        and cls.iter_steps is Scenario.iter_steps
        and cls.build_engine is Scenario.build_engine
        and scenario.effective_fidelity(twin) == "full"
        and twin.cooling_backend == "fused"
    )


class BatchedEngine:
    """Run B scenarios lane-parallel, bit-identical to serial runs.

    Parameters
    ----------
    scenarios:
        The scenario instances to execute.
    twin:
        The digital twin every lane runs on (anything :func:`as_twin`
        accepts): a batch is one system.
    """

    def __init__(self, scenarios, twin) -> None:
        self.scenarios = list(scenarios)
        self.twin = as_twin(twin)
        #: Per-run counters, aggregated over lanes (bench observability).
        self.power_evals = 0
        self.power_reuses = 0
        #: Optional :class:`~repro.core.profiling.PhaseProfiler`: the lane
        #: loop's warmup / schedule / power / cooling / collect phases,
        #: as :class:`~repro.core.engine.RapsEngine` reports them.
        self.profiler = None

    # -- execution ---------------------------------------------------------------

    def run(self, *, progress=None, on_step=None) -> list[ScenarioResult]:
        """Execute all scenarios; results in input order.

        ``progress`` is an optional ``(done, total)`` callback fired as
        scenarios finish collection (and per serial fallback).
        ``on_step(index, step)`` streams every
        :class:`~repro.core.engine.StepState` as it is produced, tagged
        with the scenario's caller-order index (the service layer's
        live step transport); each scenario's stream is its serial
        ``progress`` stream, its runs in plan order.
        """
        total = len(self.scenarios)
        out: list[ScenarioResult | None] = [None] * total
        done = 0
        lanes: list[_Lane] = []
        runs: dict[int, list[_Lane]] = {}
        fallback: list[int] = []
        twin = self.twin
        for index, scenario in enumerate(self.scenarios):
            if not _laneable(scenario, twin):
                fallback.append(index)
                continue
            own = [
                _Lane(index, scenario, twin, plan)
                for plan in scenario.plans(twin)
            ]
            for prev, lane in zip(own, own[1:]):
                prev.next, lane.prev = lane, prev
            runs[index] = own
            lanes.extend(own)

        if lanes:
            self._run_lanes(lanes, on_step=on_step)
        for index, own in runs.items():
            results = [
                collect_steps(
                    iter(lane.steps),
                    jobs=lane.jobs,
                    num_cdus=twin.spec.cooling.num_cdus,
                    scheduler_stats=lane.scheduler.stats,
                )
                for lane in own
            ]
            out[index] = own[0].scenario._finish(twin, results)
            done += 1
            if progress is not None:
                progress(done, total)
        for index in fallback:
            out[index] = self.scenarios[index].run(
                twin,
                progress=None if on_step is None else partial(on_step, index),
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
        power = BatchedPowerModel(
            self.twin.spec, [lane.chain for lane in lanes]
        )
        prof = self.profiler
        if prof is not None:
            prof.begin_run()
        coupled = [lane for lane in lanes if lane.fmu is not None]
        cool = finish = None
        if coupled:
            t0 = perf_counter()
            self._warmup(lanes, power)
            cool, finish = resident_cooling(coupled)
            if prof is not None:
                prof.add("warmup", perf_counter() - t0)
        reg = get_registry()
        lanes_gauge = (
            reg.gauge("repro_batch_lanes_active") if reg.enabled else None
        )
        for active in lane_loop(lanes, power.evaluate, cool, profiler=prof):
            if lanes_gauge is not None:
                lanes_gauge.set(len(active))
            for lane in active:
                lane.steps.append(lane.step)
                if on_step is not None:
                    lane.forward(on_step)
        self.power_evals = sum(lane.power_evals for lane in lanes)
        self.power_reuses = sum(lane.power_reuses for lane in lanes)
        if finish is not None:
            finish()
        lane_steps = sum(lane.n_steps for lane in lanes)
        if prof is not None:
            prof.end_run(
                lane_steps,
                power_evals=self.power_evals,
                power_reuses=self.power_reuses,
            )
        if reg.enabled:
            # Bulk fold at end of sweep; lanes bypass RapsEngine, so
            # these batch-level counters are the only registry traffic
            # for laned execution.
            reg.counter("repro_batch_runs_total").inc()
            reg.counter("repro_batch_lane_steps_total").inc(lane_steps)
            reg.counter("repro_batch_padded_lane_steps_total").inc(
                len(lanes) * lanes[0].n_steps - lane_steps
            )

    def _warmup(self, lanes: list[_Lane], power: BatchedPowerModel) -> None:
        """Shared cooling warmup: lanes sharing (chain, initial wet-bulb)
        share one warmed plant state, so each group warms its first lane
        and replicates the snapshot onto the rest.  The warm cache key
        has no chain, so a modified chain bypasses it."""
        groups: dict[tuple, list[tuple[int, _Lane]]] = {}
        for pid, lane in enumerate(lanes):
            if lane.fmu is not None:
                key = (id(lane.chain), lane.wb0)
                groups.setdefault(key, []).append((pid, lane))
        cache = getattr(self.twin, "warm_cache", None)
        for (pid0, first), *rest in groups.values():
            warm_cooling(
                first.fmu,
                self.twin.spec,
                first.wb0,
                WARMUP_COOLING_S,
                lambda: power.idle_power(pid0),
                cache=cache if first.chain is None else None,
                replicas=[lane.fmu for _, lane in rest],
            )


def run_batched(scenarios, twin, *, progress=None) -> list[ScenarioResult]:
    """Execute ``scenarios`` against ``twin`` with the batched engine.

    Convenience wrapper over :class:`BatchedEngine`; results come back
    in input order and are bit-identical to ``scenario.run(twin)``.
    """
    return BatchedEngine(scenarios, twin).run(progress=progress)


__all__ = ["BatchedEngine", "run_batched", "COOLING_SUBSTEP_S"]
