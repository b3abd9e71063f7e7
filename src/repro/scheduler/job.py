"""Scheduler-side job representation and lifecycle state."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SchedulingError
from repro.telemetry.schema import TRACE_QUANTA_S, JobRecord


class JobState(enum.Enum):
    """Lifecycle of a job inside the simulator."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass
class Job:
    """A schedulable job with CPU/GPU utilization traces.

    The paper characterizes each job by (1) the number of nodes required,
    (2) the wall time, and (3) CPU/GPU utilization traces at the trace
    quanta (section III-B).  ``recorded_start`` carries the physical
    twin's dispatch time for telemetry replay; synthetic jobs leave it
    None and are placed by the simulated scheduler.
    """

    job_id: int
    name: str
    nodes_required: int
    wall_time: float
    cpu_util: np.ndarray
    gpu_util: np.ndarray
    submit_time: float = 0.0
    priority: int = 0
    recorded_start: float | None = None
    trace_quanta: float = TRACE_QUANTA_S

    # Mutable lifecycle fields (engine-owned).
    state: JobState = JobState.PENDING
    start_time: float | None = None
    end_time: float | None = None
    assigned_nodes: np.ndarray | None = None
    slot: int = -1

    def __post_init__(self) -> None:
        self.cpu_util = np.ascontiguousarray(self.cpu_util, dtype=np.float64)
        self.gpu_util = np.ascontiguousarray(self.gpu_util, dtype=np.float64)
        if self.nodes_required < 1:
            raise SchedulingError(
                f"job {self.job_id}: nodes_required must be >= 1"
            )
        if self.wall_time <= 0:
            raise SchedulingError(f"job {self.job_id}: wall_time must be > 0")
        if self.cpu_util.shape != self.gpu_util.shape or self.cpu_util.ndim != 1:
            raise SchedulingError(
                f"job {self.job_id}: malformed utilization traces"
            )
        if self.cpu_util.size == 0:
            raise SchedulingError(f"job {self.job_id}: empty utilization trace")

    @classmethod
    def from_record(cls, record: JobRecord) -> "Job":
        """Build a scheduler job from a telemetry record (replay path)."""
        return cls(
            job_id=record.job_id,
            name=record.job_name,
            nodes_required=record.node_count,
            wall_time=record.wall_time,
            cpu_util=record.cpu_util,
            gpu_util=record.gpu_util,
            submit_time=record.start_time,
            recorded_start=record.start_time,
            trace_quanta=record.trace_quanta,
        )

    def unstarted(self) -> "Job":
        """A copy in the pending state over the same trace arrays."""
        return Job(
            job_id=self.job_id,
            name=self.name,
            nodes_required=self.nodes_required,
            wall_time=self.wall_time,
            cpu_util=self.cpu_util,
            gpu_util=self.gpu_util,
            submit_time=self.submit_time,
            priority=self.priority,
            recorded_start=self.recorded_start,
            trace_quanta=self.trace_quanta,
        )

    # -- trace access ----------------------------------------------------------

    @property
    def num_quanta(self) -> int:
        return int(self.cpu_util.size)

    def quantum_index(self, now: float) -> int:
        """Trace index at simulation time ``now`` (job must be running)."""
        if self.start_time is None:
            raise SchedulingError(f"job {self.job_id} has not started")
        elapsed = max(0.0, now - self.start_time)
        return min(int(elapsed // self.trace_quanta), self.num_quanta - 1)

    def util_at(self, now: float) -> tuple[float, float]:
        """(cpu_util, gpu_util) at simulation time ``now``."""
        idx = self.quantum_index(now)
        return float(self.cpu_util[idx]), float(self.gpu_util[idx])

    # -- lifecycle ---------------------------------------------------------------

    @property
    def scheduled_end(self) -> float:
        """Completion time implied by the start time and wall time."""
        if self.start_time is None:
            raise SchedulingError(f"job {self.job_id} has not started")
        return self.start_time + self.wall_time

    @property
    def wait_time(self) -> float:
        """Queue wait: dispatch minus submission."""
        if self.start_time is None:
            raise SchedulingError(f"job {self.job_id} has not started")
        return self.start_time - self.submit_time

    def mark_running(self, now: float, nodes: np.ndarray, slot: int) -> None:
        if self.state is not JobState.PENDING:
            raise SchedulingError(
                f"job {self.job_id}: cannot start from state {self.state}"
            )
        if nodes.size != self.nodes_required:
            raise SchedulingError(
                f"job {self.job_id}: allocated {nodes.size} nodes, "
                f"required {self.nodes_required}"
            )
        self.state = JobState.RUNNING
        self.start_time = now
        self.assigned_nodes = nodes
        self.slot = slot

    def mark_completed(self, now: float) -> None:
        if self.state is not JobState.RUNNING:
            raise SchedulingError(
                f"job {self.job_id}: cannot complete from state {self.state}"
            )
        self.state = JobState.COMPLETED
        self.end_time = now


__all__ = ["Job", "JobState"]
