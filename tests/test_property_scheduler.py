"""Property-based tests: scheduler never over-allocates, conserves jobs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchedulingError
from repro.scheduler.engine import SchedulerEngine
from repro.scheduler.job import Job, JobState

TOTAL_NODES = 128


def job_strategy():
    return st.builds(
        lambda jid, nodes, wall, submit: Job(
            job_id=jid,
            name=f"j{jid}",
            nodes_required=nodes,
            wall_time=wall,
            cpu_util=np.full(max(1, int(wall // 15)), 0.5),
            gpu_util=np.full(max(1, int(wall // 15)), 0.5),
            submit_time=submit,
        ),
        jid=st.integers(0, 10**6),
        nodes=st.integers(1, TOTAL_NODES),
        wall=st.floats(15.0, 600.0, allow_nan=False),
        submit=st.floats(0.0, 500.0, allow_nan=False),
    )


def unique_jobs(jobs):
    seen = set()
    out = []
    for j in jobs:
        if j.job_id not in seen:
            seen.add(j.job_id)
            out.append(j)
    return out


@given(
    jobs=st.lists(job_strategy(), min_size=0, max_size=30),
    policy=st.sampled_from(["fcfs", "sjf", "priority", "backfill"]),
)
@settings(max_examples=40, deadline=None)
def test_engine_invariants_under_random_workloads(jobs, policy):
    """Drive the engine tick-by-tick; invariants hold at every step."""
    jobs = unique_jobs(jobs)
    engine = SchedulerEngine(TOTAL_NODES, policy=policy)
    by_time = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    ptr = 0
    for t in np.arange(0.0, 1200.0, 5.0):
        arrivals = []
        while ptr < len(by_time) and by_time[ptr].submit_time <= t:
            arrivals.append(by_time[ptr])
            ptr += 1
        engine.tick(float(t), arrivals)
        # Invariant 1: never more nodes allocated than exist.
        assert engine.allocator.num_allocated <= TOTAL_NODES
        # Invariant 2: allocator bookkeeping matches running jobs.
        engine.drain_check()
        # Invariant 3: utilization in [0, 1].
        assert 0.0 <= engine.utilization <= 1.0
    # Conservation: every submitted job is pending, running, or completed.
    assert (
        engine.stats.submitted
        == engine.num_pending + engine.num_running + engine.stats.completed
    )


@given(jobs=st.lists(job_strategy(), min_size=1, max_size=25))
@settings(max_examples=30, deadline=None)
def test_all_jobs_eventually_complete(jobs):
    """With a long enough horizon every job runs and finishes."""
    jobs = unique_jobs(jobs)
    engine = SchedulerEngine(TOTAL_NODES, policy="fcfs")
    by_time = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    ptr = 0
    horizon = 500.0 + sum(j.wall_time for j in jobs) + 600.0
    t = 0.0
    while t <= horizon:
        arrivals = []
        while ptr < len(by_time) and by_time[ptr].submit_time <= t:
            arrivals.append(by_time[ptr])
            ptr += 1
        engine.tick(t, arrivals)
        t += 5.0
    assert engine.stats.completed == len(jobs)
    assert all(j.state is JobState.COMPLETED for j in jobs)
    assert engine.allocator.num_free == TOTAL_NODES


@given(jobs=st.lists(job_strategy(), min_size=1, max_size=25))
@settings(max_examples=30, deadline=None)
def test_no_job_starts_before_submission(jobs):
    jobs = unique_jobs(jobs)
    engine = SchedulerEngine(TOTAL_NODES, policy="sjf")
    by_time = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    ptr = 0
    for t in np.arange(0.0, 2000.0, 7.0):
        arrivals = []
        while ptr < len(by_time) and by_time[ptr].submit_time <= t:
            arrivals.append(by_time[ptr])
            ptr += 1
        engine.tick(float(t), arrivals)
    for job in jobs:
        if job.start_time is not None:
            assert job.start_time >= job.submit_time - 1e-9


@given(
    count=st.integers(1, TOTAL_NODES),
    slots=st.integers(0, 64),
)
@settings(max_examples=50, deadline=None)
def test_allocator_roundtrip_property(count, slots):
    from repro.scheduler.allocator import NodeAllocator

    alloc = NodeAllocator(TOTAL_NODES)
    nodes = alloc.allocate(count, slot=slots)
    assert nodes.size == count
    assert np.unique(nodes).size == count  # no duplicates
    alloc.release(nodes)
    assert alloc.num_free == TOTAL_NODES
    assert np.all(alloc.slot_of_node == -1)


def _assert_counts_match_masks(alloc):
    assert alloc.num_free == int(np.count_nonzero(alloc._free))
    assert alloc.num_down == int(np.count_nonzero(alloc._down))
    assert alloc.num_allocated == TOTAL_NODES - alloc.num_free - alloc.num_down


node_lists = st.lists(st.integers(0, TOTAL_NODES - 1), min_size=0, max_size=12)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("allocate"), st.integers(1, TOTAL_NODES // 2)),
            st.tuples(st.just("release"), st.integers(0, 10**6)),
            st.tuples(st.just("fail"), node_lists, st.booleans()),
            st.tuples(st.just("restore"), node_lists),
        ),
        max_size=40,
    ),
)
@settings(max_examples=80, deadline=None)
def test_allocator_counters_track_masks(ops):
    """The O(1) free/down counters equal the mask counts after every
    allocate, release, node failure and restore — including node lists
    with duplicates, nodes already down and nodes that are busy."""
    engine = SchedulerEngine(TOTAL_NODES)
    alloc = engine.allocator
    held: dict[int, np.ndarray] = {}
    for op in ops:
        if op[0] == "allocate":
            if alloc.can_allocate(op[1]):
                slot = len(held) + 1000 * len(ops)
                held[slot] = alloc.allocate(op[1], slot)
            else:
                with pytest.raises(SchedulingError):
                    alloc.allocate(op[1], 0)
        elif op[0] == "release" and held:
            slot = sorted(held)[op[1] % len(held)]
            alloc.release(held.pop(slot))
        elif op[0] == "fail":
            # No running jobs are registered, so held nodes stay held.
            engine.fail_nodes(np.array(op[1], dtype=np.int64), 0.0,
                              kill_running=op[2])
        elif op[0] == "restore":
            engine.restore_nodes(np.array(op[1], dtype=np.int64))
        _assert_counts_match_masks(alloc)
        alloc.check_counts()
        assert alloc.can_allocate(alloc.num_free) == (alloc.num_free > 0)
        assert not alloc.can_allocate(alloc.num_free + 1)
