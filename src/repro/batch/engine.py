"""Lane-parallel scenario execution: B engine runs, one set of array calls.

:class:`BatchedEngine` runs B scenario instances through the same
per-quantum loop as the serial engine, :func:`~repro.core.engine.lane_loop`,
with B lanes instead of one.  Each lane's schedule and power come from
an :class:`~repro.core.engine.ElectricalRun` (scheduler, trace pool
and fault stream — the event-driven half of Algorithm 1, cheap per-run
Python), and lanes with equal electrical
inputs share one (see *shared electrical runs* below); what this module
adds is the batched half:

- lane ordering: lanes run longest-first, so finished lanes drop off the
  batch tail and the active lanes stay a contiguous prefix;
- power: every live run is evaluated each quantum in one
  :class:`~repro.batch.power.BatchedPowerModel` call;
- warmup and cooling: :func:`~repro.core.engine.lane_loop` itself, the
  serial engine's driver too: lanes with the same (chain, wet-bulb)
  warm once (``twin.warm_cache`` serving the baseline chain only), and
  on the fused backend the coupled plants advance as one
  :class:`~repro.batch.kernel.BatchedPlantKernel` macro step, held
  resident for the whole run and written back onto the component
  graphs when it ends; on the reference backend each lane's FMU steps
  through ``do_step``.

Each planned run (:meth:`~repro.scenarios.base.Scenario.plans`) is one
lane: a what-if is two, the modified one carrying its own conversion
chain.  A lane's result is a slice of its result columns, and its
:class:`~repro.core.engine.StepState` rows are built only for
``on_step``; both are **bit-identical** to the matching serial
``scenario.run(twin)`` run; the differential test suite
(`tests/test_batch_differential.py`) enforces exactness across the
scenario library.

Shared electrical runs: scheduling and power never read the wet-bulb
or a cooling output, so each ``run`` builds every distinct workload
once (:class:`~repro.scenarios.base.WorkloadMemo`) and a lane follows
an earlier lane's run when their plans have the same memo-built jobs,
resolved policy, duration, replay mode and chain, and no fault events
(:func:`_run_key`).  Anything else runs alone.

A batch is one system: every lane runs on ``twin.spec`` and its
``cooling_backend``, so the plant kernel's rows share one CDU count.
Scenarios a lane cannot represent — surrogate fidelity, or scenario
classes overriding the run protocol (sweep containers) — fall back to
``scenario.run(twin)`` serially, on the run's workload memo, so
``run_batched`` accepts any scenario list and always returns correct
results, in the caller's order.
"""

from __future__ import annotations

import copy
import dataclasses
from functools import partial
from time import perf_counter

from repro.batch.power import BatchedPowerModel
from repro.cooling.fmu import CoolingFMU
from repro.core.engine import COOLING_SUBSTEP_S, Lane, lane_loop, lane_runs
from repro.obs.registry import get_registry
from repro.scenarios.base import RunPlan, Scenario, WorkloadMemo
from repro.scenarios.result import ScenarioResult
from repro.scenarios.twin import DigitalTwin, as_twin
from repro.scheduler.engine import SchedulerEngine


class _Lane(Lane):
    """One planned run of a scenario inside the batch.

    The lane builds its own electrical run from ``plan``, or, given a
    ``leader`` lane, follows the leader's run.
    """

    def __init__(
        self,
        index: int,
        scenario: Scenario,
        twin: DigitalTwin,
        plan: RunPlan,
        leader: Lane | None = None,
    ) -> None:
        self.index = index  # caller-order position
        self.scenario = scenario
        spec = twin.spec
        fmu = None
        if scenario.with_cooling:
            fmu = CoolingFMU(
                spec.cooling,
                substep_s=COOLING_SUBSTEP_S,
                backend=twin.cooling_backend,
            )
            fmu.setup_experiment(start_time=0.0)
        #: Whether the lane follows another lane's electrical run.
        self.follower = leader is not None
        if leader is not None:
            self.attach(leader.run, plan.wetbulb, fmu)
        else:
            super().__init__(
                SchedulerEngine(
                    spec.total_nodes,
                    policy=_policy(scenario, twin),
                    honor_recorded_starts=plan.honor_recorded,
                    max_queue_depth=spec.scheduler.max_queue_depth,
                ),
                plan.jobs,
                plan.duration_s,
                plan.wetbulb,
                plan.events,
                fmu,
                num_cdus=spec.cooling.num_cdus,
                chain=plan.chain,
            )
        # The scenario's neighbouring planned runs, and the steps sent.
        self.prev: _Lane | None = None
        self.next: _Lane | None = None
        self.sent = 0

    def result(self, steps: int):
        """:meth:`Lane.result`; a follower's result owns its jobs,
        stats and electrical columns."""
        result = super().result(steps)
        if not self.follower:
            return result
        return dataclasses.replace(
            result,
            jobs=[copy.copy(job) for job in result.jobs],
            scheduler_stats=copy.deepcopy(result.scheduler_stats),
            **{
                name: getattr(result, name).copy()
                for name in self.run.columns
            },
        )

    def forward(self, on_step, done: int) -> None:
        """Send this lane's steps among the first ``done`` quanta that
        are not sent yet to ``on_step``, as rows, once the scenario's
        earlier runs are sent in full (a scenario streams in plan
        order)."""
        if self.prev is not None and self.prev.sent < self.prev.n_steps:
            return
        end = min(done, self.n_steps)
        for k in range(self.sent, end):
            on_step(self.index, self.state(k))
        self.sent = end
        if self.next is not None and self.sent == self.n_steps:
            self.next.forward(on_step, done)


def _policy(scenario: Scenario, twin: DigitalTwin):
    """The scheduler policy a scenario's runs resolve to."""
    return scenario.policy or twin.spec.scheduler.policy


def _run_key(plan: RunPlan, policy, memo: WorkloadMemo):
    """The key of the electrical run ``plan`` may share, or None when it
    runs alone (fault events, or jobs the memo did not build)."""
    if plan.events or not memo.built(plan.jobs):
        return None
    return (
        id(plan.jobs),
        policy,
        plan.duration_s,
        plan.honor_recorded,
        id(plan.chain),
    )


def _laneable(scenario: Scenario, twin: DigitalTwin) -> bool:
    """Whether a scenario can run as a batch lane.

    Lanes replicate the base ``Scenario.run`` protocol over a full-
    fidelity :class:`~repro.core.engine.RapsEngine`; anything that
    customizes execution (sweep containers, surrogate fidelity) falls
    back to serial.
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
        The digital twin every lane runs on (anything :func:`as_twin`
        accepts): a batch is one system.
    """

    def __init__(self, scenarios, twin) -> None:
        self.scenarios = list(scenarios)
        self.twin = as_twin(twin)
        #: Per-run counters, summed over the electrical runs (lanes
        #: sharing a run count once; bench observability).
        self.power_evals = 0
        #: Lanes of the last run that followed another lane's
        #: electrical run.
        self.shared_lanes = 0
        #: Optional :class:`~repro.core.profiling.PhaseProfiler`: the
        #: scenarios' ``plan`` building, then the lane loop's warmup /
        #: schedule / power / cooling (split into ``cooling.advance``
        #: and ``cooling.records``) / collect phases.
        self.profiler = None

    # -- execution ---------------------------------------------------------------

    def run(
        self, *, on_step=None, on_result=None, workloads=None
    ) -> list[ScenarioResult]:
        """Execute all scenarios; results in input order.

        ``on_step(index, step)`` streams every
        :class:`~repro.core.engine.StepState` as it is produced, tagged
        with the scenario's caller-order index (the service layer's
        live step transport); each scenario's stream is its serial
        ``progress`` stream, its runs in plan order.
        ``on_result(index, outcome)`` gets each outcome ``run`` returns
        once: a lane scenario's right after the quantum its last lane
        ends in (caller order within a quantum), then each fallback's.
        ``workloads`` is the :class:`~repro.scenarios.base.WorkloadMemo`
        the lanes and fallbacks build through (a fresh one by default),
        so calls sharing one build each workload once.
        """
        out: list[ScenarioResult | None] = [None] * len(self.scenarios)
        twin = self.twin
        laneable: list[tuple[int, Scenario]] = []
        fallback: list[int] = []
        for index, scenario in enumerate(self.scenarios):
            if _laneable(scenario, twin):
                laneable.append((index, scenario))
            else:
                fallback.append(index)
        prof = self.profiler
        if laneable and prof is not None:
            prof.begin_run()
        lanes: list[_Lane] = []
        runs: dict[int, list[_Lane]] = {}
        memo = WorkloadMemo() if workloads is None else workloads
        leaders: dict[tuple, _Lane] = {}
        for index, scenario in laneable:
            t0 = perf_counter()
            plans = scenario.plans(twin, workloads=memo)
            if prof is not None:
                prof.add("plan", perf_counter() - t0)
            own = []
            for plan in plans:
                key = _run_key(plan, _policy(scenario, twin), memo)
                leader = leaders.get(key)
                if leader is None:
                    plan = dataclasses.replace(
                        plan, jobs=memo.checkout(plan.jobs)
                    )
                lane = _Lane(index, scenario, twin, plan, leader)
                if key is not None and leader is None:
                    leaders[key] = lane
                own.append(lane)
            for prev, lane in zip(own, own[1:]):
                prev.next, lane.prev = lane, prev
            runs[index] = own
            lanes.extend(own)

        # The quantum each scenario's last lane ends in, caller order.
        ends: dict[int, list[int]] = {}
        for index, own in runs.items():
            end = max(lane.n_steps for lane in own) - 1
            ends.setdefault(end, []).append(index)

        def hand_over(index: int) -> None:
            scenario = self.scenarios[index]
            if index in runs:
                outcome = scenario._finish(
                    twin, [lane.result(lane.n_steps) for lane in runs[index]]
                )
            else:
                stream = None if on_step is None else partial(on_step, index)
                outcome = scenario.run(
                    twin, workloads=memo, progress=stream
                )
            out[index] = outcome
            if on_result is not None:
                on_result(index, outcome)

        def on_quantum(k: int) -> None:
            for index in ends.get(k, ()):
                hand_over(index)

        if lanes:
            self._run_lanes(lanes, on_step=on_step, on_quantum=on_quantum)
            if prof is not None:
                prof.end_run(
                    sum(lane.n_steps for lane in lanes),
                    power_evals=self.power_evals,
                )
        for index in fallback:
            hand_over(index)
        return out  # type: ignore[return-value]

    # -- internals ---------------------------------------------------------------

    def _run_lanes(
        self, lanes: list[_Lane], on_step=None, on_quantum=None
    ) -> None:
        # Longest lanes first: active lanes stay a contiguous batch
        # prefix as shorter lanes finish (sort is stable, so equal
        # lengths keep caller order).
        lanes.sort(key=lambda lane: -lane.n_steps)
        runs = lane_runs(lanes)
        power = BatchedPowerModel(
            self.twin.spec, [run.chain for run in runs]
        )
        reg = get_registry()
        lanes_gauge = (
            reg.gauge("repro_batch_lanes_active") if reg.enabled else None
        )
        loop = lane_loop(
            lanes,
            power.evaluate,
            power.idle,
            self.twin.spec,
            warm_cache=self.twin.warm_cache,
            profiler=self.profiler,
        )
        try:
            for k, active in loop:
                if lanes_gauge is not None:
                    lanes_gauge.set(len(active))
                if on_step is not None:
                    for lane in active:
                        lane.forward(on_step, k + 1)
                if on_quantum is not None:
                    on_quantum(k)
        finally:
            loop.close()  # syncs the FMUs now, even if a traceback holds us
        self.power_evals = sum(run.power_evals for run in runs)
        self.shared_lanes = len(lanes) - len(runs)
        if reg.enabled:
            lane_steps = sum(lane.n_steps for lane in lanes)
            # Bulk fold at end of sweep; lanes bypass RapsEngine, so
            # these batch-level counters are the only registry traffic
            # for laned execution.
            reg.counter("repro_batch_runs_total").inc()
            reg.counter("repro_batch_lane_steps_total").inc(lane_steps)
            reg.counter("repro_batch_padded_lane_steps_total").inc(
                len(lanes) * lanes[0].n_steps - lane_steps
            )
            reg.counter("repro_batch_shared_lanes_total").inc(
                self.shared_lanes
            )


def run_batched(scenarios, twin) -> list[ScenarioResult]:
    """Execute ``scenarios`` against ``twin`` with the batched engine.

    Convenience wrapper over :class:`BatchedEngine`; results come back
    in input order and are bit-identical to ``scenario.run(twin)``.
    """
    return BatchedEngine(scenarios, twin).run()


__all__ = ["BatchedEngine", "run_batched"]
