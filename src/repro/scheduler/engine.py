"""The tick-based scheduling engine (Algorithm 1, scheduling half).

Every tick: newly arrived jobs join the pending queue, completed jobs
release their nodes, and the policy dispatches pending jobs onto free
nodes.  Running jobs occupy *slots* — dense integer ids the power model
uses for vectorized utilization lookups (see
:class:`repro.power.system.SystemPowerModel`).

Replay mode (``honor_recorded_starts=True``) bypasses the policy and
starts each job exactly at its recorded dispatch time, which is how the
paper replays telemetry through RAPS while reproducing the physical
twin's scheduling decisions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SchedulingError
from repro.scheduler.allocator import NodeAllocator
from repro.scheduler.job import Job, JobState
from repro.scheduler.policies import SchedulingPolicy, make_policy
from repro.scheduler.queue import PendingQueue


@dataclass
class SchedulerStats:
    """Counters accumulated over a run (feeds paper section III-B5)."""

    submitted: int = 0
    started: int = 0
    completed: int = 0
    rejected: int = 0
    killed: int = 0
    total_wait_s: float = 0.0
    total_node_seconds: float = 0.0
    wait_times: list[float] = field(default_factory=list)

    @property
    def mean_wait_s(self) -> float:
        return self.total_wait_s / self.started if self.started else 0.0


class SchedulerEngine:
    """Node allocation + dispatch over simulated time.

    Parameters
    ----------
    total_nodes:
        System size.
    policy:
        Policy name or instance (``fcfs``/``sjf``/``priority``/``backfill``).
    honor_recorded_starts:
        Replay mode — jobs start at ``job.recorded_start`` regardless of
        the policy (the paper's telemetry replay).
    max_queue_depth:
        Pending-queue limit (0 = unlimited).
    """

    def __init__(
        self,
        total_nodes: int,
        *,
        policy: str | SchedulingPolicy = "fcfs",
        honor_recorded_starts: bool = False,
        max_queue_depth: int = 0,
        down_nodes: np.ndarray | None = None,
    ) -> None:
        self.allocator = NodeAllocator(total_nodes, down_nodes=down_nodes)
        self.policy: SchedulingPolicy = (
            make_policy(policy) if isinstance(policy, str) else policy
        )
        self.honor_recorded_starts = honor_recorded_starts
        self.queue = PendingQueue(max_queue_depth)
        self.stats = SchedulerStats()
        self.running: dict[int, Job] = {}
        # Completion events as a heap of (end_time, job_id).
        self._completions: list[tuple[float, int]] = []
        # Slot management for the vectorized power model.
        self._free_slots: list[int] = []
        self._next_slot = 0
        self.max_slots = 0

    # -- submission -----------------------------------------------------------

    def submit(self, job: Job) -> bool:
        """Add a job to the pending queue.  Returns False if rejected."""
        if job.nodes_required > self.allocator.total_nodes:
            raise SchedulingError(
                f"job {job.job_id} requires {job.nodes_required} nodes; "
                f"system has {self.allocator.total_nodes}"
            )
        accepted = self.queue.push(job)
        if accepted:
            self.stats.submitted += 1
        else:
            self.stats.rejected += 1
        return accepted

    # -- slot pool ---------------------------------------------------------------

    def _acquire_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        slot = self._next_slot
        self._next_slot += 1
        self.max_slots = max(self.max_slots, self._next_slot)
        return slot

    def _release_slot(self, slot: int) -> None:
        self._free_slots.append(slot)

    # -- dispatch ------------------------------------------------------------------

    def _start_job(self, job: Job, now: float) -> None:
        slot = self._acquire_slot()
        nodes = self.allocator.allocate(job.nodes_required, slot)
        job.mark_running(now, nodes, slot)
        self.running[job.job_id] = job
        heapq.heappush(self._completions, (job.scheduled_end, job.job_id))
        self.stats.started += 1
        self.stats.total_wait_s += job.wait_time
        self.stats.wait_times.append(job.wait_time)
        self.stats.total_node_seconds += job.nodes_required * job.wall_time

    def _complete_job(self, job: Job, now: float) -> None:
        self.allocator.release(job.assigned_nodes)
        self._release_slot(job.slot)
        job.mark_completed(now)
        del self.running[job.job_id]
        self.stats.completed += 1

    def _kill_job(self, job: Job, now: float) -> None:
        """Tear a running job down early (node failure under it)."""
        self.allocator.release(job.assigned_nodes)
        self._release_slot(job.slot)
        job.mark_completed(now)
        del self.running[job.job_id]
        self.stats.killed += 1
        # The job's (scheduled_end, job_id) heap entry goes stale; the
        # completion loop and next_event_time() tolerate and skip it.

    # -- fault injection -----------------------------------------------------

    def fail_nodes(
        self, nodes: np.ndarray, now: float, *, kill_running: bool = True
    ) -> list[Job]:
        """Take nodes out of service; returns the jobs killed under them.

        With ``kill_running`` the jobs occupying failed nodes are killed
        first (releasing their full allocations), then every
        currently-free requested node is marked down.  Without it,
        occupied nodes keep their jobs and stay in service — only the
        free subset goes down (soft maintenance).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        nodes = nodes[(nodes >= 0) & (nodes < self.allocator.total_nodes)]
        killed: list[Job] = []
        if kill_running and nodes.size:
            hit_slots = {
                int(s) for s in self.allocator.slot_of_node[nodes] if s >= 0
            }
            if hit_slots:
                for job in list(self.running.values()):
                    if job.slot in hit_slots:
                        self._kill_job(job, now)
                        killed.append(job)
        free_now = self.allocator.free_among(nodes)
        if free_now.size:
            self.allocator.mark_down(free_now)
        return killed

    def restore_nodes(self, nodes: np.ndarray) -> None:
        """Return the currently-down subset of ``nodes`` to service."""
        nodes = np.asarray(nodes, dtype=np.int64)
        nodes = nodes[(nodes >= 0) & (nodes < self.allocator.total_nodes)]
        down_now = self.allocator.down_among(nodes)
        if down_now.size:
            self.allocator.mark_up(down_now)

    # -- main tick --------------------------------------------------------------------

    def tick(self, now: float, arrivals: list[Job]) -> tuple[list[Job], list[Job]]:
        """Advance to time ``now``: complete, enqueue arrivals, dispatch.

        Returns ``(started, completed)`` job lists for this tick.  The
        caller owns the clock; ticks must be non-decreasing in ``now``.
        """
        completed: list[Job] = []
        while self._completions and self._completions[0][0] <= now:
            end_time, job_id = heapq.heappop(self._completions)
            job = self.running.get(job_id)
            if job is None:
                continue  # stale heap entry
            self._complete_job(job, now)
            completed.append(job)

        for job in arrivals:
            self.submit(job)

        started: list[Job] = []
        if self.honor_recorded_starts:
            # Replay: start exactly the jobs whose recorded time has come,
            # in queue order, while they fit.  Free nodes only fall within
            # a tick, so a job larger than the tick's starting free count
            # cannot start in it and is not considered.
            free = self.allocator.num_free
            due = [
                j
                for j in self.queue
                if j.nodes_required <= free
                and j.recorded_start is not None
                and j.recorded_start <= now
            ]
            for job in due:
                if job.nodes_required <= free:
                    self.queue.remove(job.job_id)
                    self._start_job(job, now)
                    started.append(job)
                    free -= job.nodes_required
        else:
            pending = self.queue.jobs()
            if pending:
                chosen = self.policy.select(
                    pending,
                    self.allocator.num_free,
                    now,
                    list(self.running.values()),
                )
                requested = sum(j.nodes_required for j in chosen)
                if requested > self.allocator.num_free:
                    raise SchedulingError(
                        f"policy {self.policy.name!r} over-selected: "
                        f"{requested} nodes vs {self.allocator.num_free} free"
                    )
                for job in chosen:
                    self.queue.remove(job.job_id)
                    self._start_job(job, now)
                    started.append(job)
        return started, completed

    def startable(self, now: float) -> bool:
        """Whether a tick at ``now`` may start a queued job, absent
        arrivals and completions; False means it would start none.

        In replay mode a job starts only if its recorded start has come
        and it fits the free nodes, so the queue is scanned for one.  A
        policy's choice costs about what such a scan costs, so policy
        mode only rules out an empty queue or a full machine.
        """
        free = self.allocator.num_free
        if not free or not self.queue:
            return False
        if not self.honor_recorded_starts:
            return True
        for job in self.queue:
            if (
                job.nodes_required <= free
                and job.recorded_start is not None
                and job.recorded_start <= now
            ):
                return True
        return False

    # -- introspection -------------------------------------------------------------------

    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def num_pending(self) -> int:
        return len(self.queue)

    @property
    def utilization(self) -> float:
        return self.allocator.utilization

    def next_event_time(self) -> float | None:
        """Earliest scheduled completion, or None if nothing is running."""
        while self._completions:
            t, job_id = self._completions[0]
            if job_id in self.running:
                return t
            heapq.heappop(self._completions)
        return None

    def drain_check(self) -> None:
        """Assert internal consistency (used by property tests)."""
        self.allocator.check_counts()
        allocated = sum(j.nodes_required for j in self.running.values())
        if allocated != self.allocator.num_allocated:
            raise SchedulingError(
                f"slot leak: running jobs hold {allocated} nodes, "
                f"allocator reports {self.allocator.num_allocated}"
            )


__all__ = ["SchedulerEngine", "SchedulerStats"]
