"""Node allocation: tracks which nodes are free, allocates, releases.

Maintains a boolean free mask over all nodes plus a per-node slot map
(which running-job slot occupies each node; -1 when idle).  The slot map
is what the vectorized power model consumes, so allocation is the single
writer of node-occupancy state.  Free and down node counts are kept as
integers beside the masks, so every count query is O(1).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SchedulingError


class NodeAllocator:
    """Allocates node indices for jobs.

    Parameters
    ----------
    total_nodes:
        System size.
    policy:
        ``"contiguous"`` prefers runs of adjacent free nodes (keeps jobs
        rack-local, which matters for per-CDU power distribution);
        ``"spread"`` takes the lowest-indexed free nodes regardless of
        adjacency.
    down_nodes:
        Optional indices permanently excluded from allocation (failed
        blades, maintenance) — used for failure-injection studies.
    """

    def __init__(
        self,
        total_nodes: int,
        *,
        policy: str = "contiguous",
        down_nodes: np.ndarray | None = None,
    ) -> None:
        if total_nodes < 1:
            raise SchedulingError("total_nodes must be >= 1")
        if policy not in ("contiguous", "spread"):
            raise SchedulingError(f"unknown allocation policy {policy!r}")
        self.total_nodes = int(total_nodes)
        self.policy = policy
        self._free = np.ones(total_nodes, dtype=bool)
        self.slot_of_node = np.full(total_nodes, -1, dtype=np.int64)
        self._down = np.zeros(total_nodes, dtype=bool)
        if down_nodes is not None:
            down_nodes = np.asarray(down_nodes, dtype=np.int64)
            if down_nodes.size and (
                down_nodes.min() < 0 or down_nodes.max() >= total_nodes
            ):
                raise SchedulingError("down_nodes index out of range")
            self._down[down_nodes] = True
            self._free[down_nodes] = False
        self._num_down = int(np.count_nonzero(self._down))
        self._num_free = self.total_nodes - self._num_down

    # -- queries ---------------------------------------------------------------

    @property
    def num_free(self) -> int:
        return self._num_free

    @property
    def num_down(self) -> int:
        return self._num_down

    @property
    def num_allocated(self) -> int:
        return self.total_nodes - self.num_free - self.num_down

    @property
    def utilization(self) -> float:
        """Active nodes / total available nodes (paper Fig. 9, orange)."""
        avail = self.total_nodes - self.num_down
        return self.num_allocated / avail if avail else 0.0

    def can_allocate(self, count: int) -> bool:
        return 0 < count <= self.num_free

    def is_free(self, node: int) -> bool:
        return bool(self._free[node])

    def free_among(self, nodes: np.ndarray) -> np.ndarray:
        """The subset of ``nodes`` currently free (fault injection)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return nodes[self._free[nodes]]

    def down_among(self, nodes: np.ndarray) -> np.ndarray:
        """The subset of ``nodes`` currently down (fault injection)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return nodes[self._down[nodes]]

    def check_counts(self) -> None:
        """Raise if the free/down counters disagree with the masks."""
        free = int(np.count_nonzero(self._free))
        down = int(np.count_nonzero(self._down))
        if (self._num_free, self._num_down) != (free, down):
            raise SchedulingError(
                f"allocator counters drifted: free/down "
                f"{self._num_free}/{self._num_down}, masks {free}/{down}"
            )

    # -- mutation ---------------------------------------------------------------

    def allocate(self, count: int, slot: int) -> np.ndarray:
        """Allocate ``count`` nodes for running-job ``slot``.

        Returns the allocated node indices (sorted).  Raises
        :class:`SchedulingError` when not enough nodes are free.
        """
        if count < 1:
            raise SchedulingError("cannot allocate < 1 node")
        if slot < 0:
            raise SchedulingError("slot must be >= 0")
        if self._num_free < count:
            raise SchedulingError(
                f"requested {count} nodes, only {self._num_free} free"
            )
        free_idx = np.flatnonzero(self._free)
        if self.policy == "contiguous":
            nodes = self._pick_contiguous(free_idx, count)
        else:
            nodes = free_idx[:count]
        self._free[nodes] = False
        self.slot_of_node[nodes] = slot
        self._num_free -= count
        return nodes

    def _pick_contiguous(self, free_idx: np.ndarray, count: int) -> np.ndarray:
        """Prefer the smallest free run that fits; fall back to lowest-first.

        Vectorized run-length scan over the free index list.
        """
        if free_idx.size == count:
            return free_idx
        # Identify runs of consecutive indices.
        breaks = np.flatnonzero(np.diff(free_idx) != 1)
        run_starts = np.concatenate(([0], breaks + 1))
        run_ends = np.concatenate((breaks + 1, [free_idx.size]))
        run_lens = run_ends - run_starts
        fitting = np.flatnonzero(run_lens >= count)
        if fitting.size:
            # Best fit: smallest adequate run reduces fragmentation.
            best = fitting[np.argmin(run_lens[fitting])]
            s = run_starts[best]
            return free_idx[s : s + count]
        return free_idx[:count]

    def release(self, nodes: np.ndarray) -> None:
        """Return nodes to the free pool (must currently be allocated)."""
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if np.any(self._free[nodes]):
            raise SchedulingError("releasing nodes that are already free")
        if np.any(self._down[nodes]):
            raise SchedulingError("releasing nodes that are marked down")
        self._free[nodes] = True
        self.slot_of_node[nodes] = -1
        self._num_free += nodes.size

    def mark_down(self, nodes: np.ndarray) -> None:
        """Take currently-free nodes out of service."""
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if np.any(~self._free[nodes]):
            raise SchedulingError("can only mark free nodes down")
        self._free[nodes] = False
        self._down[nodes] = True
        self._num_free -= nodes.size
        self._num_down += nodes.size

    def mark_up(self, nodes: np.ndarray) -> None:
        """Return down nodes to service."""
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if np.any(~self._down[nodes]):
            raise SchedulingError("can only mark down nodes up")
        self._down[nodes] = False
        self._free[nodes] = True
        self._num_free += nodes.size
        self._num_down -= nodes.size


__all__ = ["NodeAllocator"]
