"""A replay quantum costs what changed, and no decision moves.

Three oracles for the per-quantum fast paths:

- the slot form of the power model (Eq. 3 once per partition and slot,
  gathered through the allocator's slot map) equals the node form bit
  for bit on a two-partition system;
- ``drive_schedule``, which skips ticks that would do nothing, makes
  the same decisions as a loop that takes every tick;
- a seeded 6 h Frontier replay keeps an integer fingerprint of its
  scheduling decisions.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.frontier import frontier_spec
from repro.config.machines import setonix_spec
from repro.core.engine import RapsEngine, _TracePool, drive_schedule
from repro.core.events import FaultEvent, sort_events
from repro.power.system import SystemPowerModel
from repro.scheduler.engine import SchedulerEngine
from repro.scheduler.job import Job
from repro.scheduler.workloads import jobs_from_dataset
from repro.telemetry.synthesis import (
    SyntheticTelemetryGenerator,
    WorkloadDayParams,
)

Q = 15.0


def _results_equal(a, b) -> None:
    for name in ("node_power_w", "rack_power_w", "cdu_power_w", "cdu_heat_w"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("sivoc_loss_w", "rectifier_loss_w", "system_power_w"):
        assert getattr(a, name) == getattr(b, name), name


def test_slot_form_equals_node_form_on_setonix():
    """Idle and down nodes, slot reuse after completions and growth of
    the slot capacity past its initial 64 all gather the same bits."""
    spec = setonix_spec()
    assert len(spec.partitions) == 2
    power = SystemPowerModel(spec)
    rng = np.random.default_rng(11)
    jobs = []
    for i in range(260):
        quanta = int(rng.integers(4, 60))
        jobs.append(Job(
            job_id=i,
            name=f"j{i}",
            nodes_required=int(rng.integers(1, 24)),
            wall_time=quanta * Q,
            cpu_util=rng.random(quanta),
            gpu_util=rng.random(quanta),
            submit_time=float(i * 4),
        ))
    events = [
        FaultEvent(150.0, "node-down", nodes=tuple(range(1500, 1700))),
        FaultEvent(600.0, "node-up", nodes=tuple(range(1500, 1600))),
    ]
    scheduler = SchedulerEngine(spec.total_nodes, policy="fcfs")
    pool = _TracePool(jobs)
    slot_of_node = scheduler.allocator.slot_of_node
    slot_users: dict[int, set] = {}
    for k, t in drive_schedule(scheduler, pool, jobs, 100, Q, events=events):
        for job in scheduler.running.values():
            slot_users.setdefault(job.slot, set()).add(job.job_id)
        slot_cpu, slot_gpu = pool.slot_utils(t, Q)
        busy = slot_of_node >= 0
        node_cpu = np.where(busy, slot_cpu[np.maximum(slot_of_node, 0)], 0.0)
        node_gpu = np.where(busy, slot_gpu[np.maximum(slot_of_node, 0)], 0.0)
        _results_equal(
            power.evaluate(slot_cpu, slot_gpu, slot_of_node),
            power.evaluate(node_cpu, node_gpu),
        )
    assert pool.slot_offset.size > 64  # capacity grew
    assert any(len(users) > 1 for users in slot_users.values())  # reuse
    assert scheduler.allocator.num_down == 100
    assert scheduler.allocator.num_free > 0


def _reference_drive(scheduler, pool, jobs, n_steps, quanta, events):
    """``drive_schedule`` as it was before it skipped no-op ticks: it
    ticks whenever an event or a dispatchable job is pending."""

    def dispatchable(q_end):
        if scheduler.num_pending == 0:
            return False
        if scheduler.honor_recorded_starts:
            return any(j.recorded_start < q_end for j in scheduler.queue)
        return scheduler.allocator.num_free > 0

    events = sort_events(events)
    arrival_ptr = event_ptr = 0
    now = 0.0
    for k in range(n_steps):
        q_end = (k + 1) * quanta
        while event_ptr < len(events) and events[event_ptr].time_s < q_end:
            event = events[event_ptr]
            event_ptr += 1
            nodes = np.asarray(event.nodes, dtype=np.int64)
            if event.kind == "node-down":
                for job in scheduler.fail_nodes(
                    nodes, k * quanta, kill_running=event.kill_running
                ):
                    pool.stop(job)
            else:
                scheduler.restore_nodes(nodes)
        while True:
            next_arrival = (
                jobs[arrival_ptr].submit_time if arrival_ptr < len(jobs)
                else np.inf
            )
            t_event = min(next_arrival, scheduler.next_event_time() or np.inf)
            if t_event >= q_end and not dispatchable(q_end):
                break
            tick_t = max(float(np.floor(min(t_event, q_end - 1.0))), now)
            arrivals = []
            while (
                arrival_ptr < len(jobs)
                and jobs[arrival_ptr].submit_time <= tick_t
            ):
                arrivals.append(jobs[arrival_ptr])
                arrival_ptr += 1
            started, completed = scheduler.tick(tick_t, arrivals)
            for job in completed:
                pool.stop(job)
            for job in started:
                pool.start(job)
            now = tick_t + 1.0
            if not started and not completed and not arrivals:
                break
        now = q_end
        yield k, k * quanta


def _trace(drive, seed, replay, policy, nodes):
    """Per-quantum scheduler state and every job's placement."""
    rng = np.random.default_rng(seed)
    jobs, t = [], 0.0
    for i in range(int(rng.integers(5, 60))):
        t += float(rng.exponential(20.0))
        snap = rng.random() < 0.5  # land events on quantum boundaries
        sub = np.floor(t / Q) * Q if snap else t
        wall = float(rng.integers(1, 30)) * Q if snap else rng.uniform(1, 600)
        late = rng.integers(0, 6) * Q if snap else rng.uniform(0, 90)
        jobs.append(Job(
            job_id=i,
            name=f"j{i}",
            nodes_required=int(rng.integers(1, nodes + 1)),
            wall_time=float(wall),
            cpu_util=np.full(4, 0.5),
            gpu_util=np.full(4, 0.5),
            submit_time=float(sub),
            recorded_start=float(sub + late) if replay else None,
            priority=int(rng.integers(0, 3)),
        ))
    events = [
        FaultEvent(
            float(rng.integers(0, 80)) * Q,
            "node-down" if rng.random() < 0.6 else "node-up",
            nodes=tuple(int(n) for n in rng.integers(0, nodes, size=4)),
            kill_running=bool(rng.integers(0, 2)),
        )
        for _ in range(int(rng.integers(0, 4)))
    ]
    scheduler = SchedulerEngine(
        nodes, policy=policy, honor_recorded_starts=replay
    )
    pool = _TracePool(jobs)
    rows = [
        (k, scheduler.num_running, scheduler.num_pending,
         scheduler.allocator.num_free, scheduler.allocator.num_down,
         pool.event_count, scheduler.stats.killed)
        for k, _ in drive(scheduler, pool, jobs, 100, Q, events=events)
    ]
    placements = [
        (j.start_time, j.end_time, j.slot,
         None if j.assigned_nodes is None else j.assigned_nodes.tolist())
        for j in jobs
    ]
    return rows, placements


@given(
    seed=st.integers(0, 2**32 - 1),
    replay=st.booleans(),
    policy=st.sampled_from(["fcfs", "sjf", "priority", "backfill"]),
    nodes=st.integers(8, 96),
)
@settings(max_examples=60, deadline=None)
def test_skipped_ticks_move_no_decision(seed, replay, policy, nodes):
    assert _trace(drive_schedule, seed, replay, policy, nodes) == _trace(
        _reference_drive, seed, replay, policy, nodes
    )


def _boundary_day(seed: int) -> list[Job]:
    """A pinned-regime Frontier day with every third job's arrival,
    recorded start and wall time snapped to quantum boundaries."""
    params = WorkloadDayParams(
        mean_arrival_s=45.0,
        mean_nodes_per_job=300.0,
        mean_runtime_s=2400.0,
        mean_gpu_util=0.7,
    )
    day = SyntheticTelemetryGenerator(frontier_spec(), seed=seed).day(
        0, params=params
    )
    jobs = []
    for i, job in enumerate(jobs_from_dataset(day)):
        if i % 3 == 0:
            sub = float(np.floor(job.submit_time / Q) * Q)
            job = dataclasses.replace(
                job,
                submit_time=sub,
                recorded_start=max(sub, float(np.floor(job.recorded_start / Q) * Q)),
                wall_time=float(np.ceil(job.wall_time / Q) * Q),
            )
        jobs.append(job)
    return jobs


def test_frontier_replay_fingerprint_is_pinned():
    """Per job (start, first node, slot) and per step ``num_running`` of
    a seeded 6 h Frontier replay, hashed; all integers, so the digest
    does not depend on the NumPy version."""
    events = [
        FaultEvent(3600.0, "node-down", nodes=(5, 5, 6, 7, 4000, 4000, 9000)),
        FaultEvent(5400.0, "node-down", nodes=(6, 7, 8, 100, 101),
                   kill_running=False),
        FaultEvent(7200.0, "node-up", nodes=(5, 6, 6, 7, 8, 4000, 12)),
        FaultEvent(9000.0, "node-up", nodes=(100, 101, 9000, 9000)),
    ]
    engine = RapsEngine(
        frontier_spec(), with_cooling=False, honor_recorded_starts=True
    )
    result = engine.run(_boundary_day(7), 6 * 3600.0, events=events)
    rows = []
    for job in result.jobs:
        if job.start_time is None:
            rows.append((job.job_id, -1, -1, -1))
        else:
            assert job.start_time == int(job.start_time)
            rows.append((job.job_id, int(job.start_time),
                         int(job.assigned_nodes[0]), int(job.slot)))
    steps = [int(n) for n in result.num_running]
    started = [job for job in result.jobs if job.start_time is not None]
    # The fixture exercises what the skipped ticks depend on: due jobs
    # blocked for lack of nodes, and starts on quantum boundaries.
    assert any(j.start_time > j.recorded_start + Q for j in started)
    assert any(j.start_time % Q == 0 for j in started)
    assert (len(rows), len(started), sum(steps)) == (1864, 413, 58060)
    digest = hashlib.sha256(repr((rows, steps)).encode()).hexdigest()
    assert digest == (
        "c9f0748eed0a1edf9e0067d4e27cc6830046cc5d180b89475c38c3df9f7b3762"
    )
