"""The node allocator against a reference copy of its fancy-index form.

``NodeAllocator`` writes a node set that is one in-range run as a slice
of its masks and skips the dedup for an already strictly increasing
array.  ``ReferenceAllocator`` below is the allocator before that
change: every node set goes through ``np.unique`` and fancy indexing.
Random allocate / release / mark_down / mark_up sequences must give the
same returned nodes, masks, slot map, counters and raised errors on
both, for sorted, unsorted, duplicated, scalar, negative and
out-of-range node sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchedulingError
from repro.scheduler.allocator import NodeAllocator

TOTAL_NODES = 48


class ReferenceAllocator:
    """``NodeAllocator``'s mutation paths as they were: ``np.unique``
    on every node set, fancy-index reads and writes."""

    def __init__(self, total_nodes, *, policy="contiguous", down_nodes=None):
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

    def allocate(self, count, slot):
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

    def _pick_contiguous(self, free_idx, count):
        if free_idx.size == count:
            return free_idx
        breaks = np.flatnonzero(np.diff(free_idx) != 1)
        run_starts = np.concatenate(([0], breaks + 1))
        run_ends = np.concatenate((breaks + 1, [free_idx.size]))
        run_lens = run_ends - run_starts
        fitting = np.flatnonzero(run_lens >= count)
        if fitting.size:
            best = fitting[np.argmin(run_lens[fitting])]
            s = run_starts[best]
            return free_idx[s : s + count]
        return free_idx[:count]

    def release(self, nodes):
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if np.any(self._free[nodes]):
            raise SchedulingError("releasing nodes that are already free")
        if np.any(self._down[nodes]):
            raise SchedulingError("releasing nodes that are marked down")
        self._free[nodes] = True
        self.slot_of_node[nodes] = -1
        self._num_free += nodes.size

    def mark_down(self, nodes):
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if np.any(~self._free[nodes]):
            raise SchedulingError("can only mark free nodes down")
        self._free[nodes] = False
        self._down[nodes] = True
        self._num_free -= nodes.size
        self._num_down += nodes.size

    def mark_up(self, nodes):
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if np.any(~self._down[nodes]):
            raise SchedulingError("can only mark down nodes up")
        self._down[nodes] = False
        self._free[nodes] = True
        self._num_free += nodes.size
        self._num_down -= nodes.size


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))


def _assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1:] == want[1:]
    elif want[1] is not None:
        assert got[1].dtype == want[1].dtype
        assert np.array_equal(got[1], want[1])


def _assert_same_state(alloc, ref):
    assert np.array_equal(alloc._free, ref._free)
    assert np.array_equal(alloc._down, ref._down)
    assert np.array_equal(alloc.slot_of_node, ref.slot_of_node)
    assert (alloc.num_free, alloc.num_down) == (ref._num_free, ref._num_down)


node_ints = st.integers(-3, TOTAL_NODES + 2)
node_sets = st.one_of(
    st.lists(node_ints, max_size=10),
    node_ints,
    st.builds(
        lambda a, n: list(range(a, a + n)),
        st.integers(-2, TOTAL_NODES), st.integers(0, 12),
    ),
)

#: How a release picks its nodes from a held allocation.
HELD_FORMS = ("as-returned", "reversed", "duplicated", "list")


def _held_form(nodes, form):
    if form == "reversed":
        return nodes[::-1]
    if form == "duplicated":
        return np.concatenate((nodes, nodes[:2]))
    if form == "list":
        return nodes.tolist()
    return nodes


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("allocate"),
            st.integers(-1, TOTAL_NODES + 1),
            st.integers(-1, 5),
        ),
        st.tuples(
            st.just("release-held"),
            st.integers(0, 10**6),
            st.sampled_from(HELD_FORMS),
        ),
        st.tuples(st.just("release"), node_sets),
        st.tuples(st.just("mark_down"), node_sets),
        st.tuples(st.just("mark_up"), node_sets),
    ),
    max_size=40,
)


@pytest.mark.parametrize("policy", ["contiguous", "spread"])
@given(
    down=st.lists(st.integers(0, TOTAL_NODES - 1), max_size=6),
    ops=ops_strategy,
)
@settings(max_examples=150, deadline=None)
def test_allocator_matches_reference(policy, down, ops):
    alloc = NodeAllocator(TOTAL_NODES, policy=policy, down_nodes=down)
    ref = ReferenceAllocator(TOTAL_NODES, policy=policy, down_nodes=down)
    _assert_same_state(alloc, ref)
    held: list[np.ndarray] = []
    for op in ops:
        kind = op[0]
        if kind == "allocate":
            got = _outcome(alloc.allocate, op[1], op[2])
            want = _outcome(ref.allocate, op[1], op[2])
            if want[0] == "ok":
                held.append(want[1])
        elif kind == "release-held":
            if not held:
                continue
            nodes = _held_form(held.pop(op[1] % len(held)), op[2])
            got = _outcome(alloc.release, nodes)
            want = _outcome(ref.release, nodes)
        else:
            nodes = op[1]
            got = _outcome(getattr(alloc, kind), nodes)
            want = _outcome(getattr(ref, kind), nodes)
        _assert_same_outcome(got, want)
        _assert_same_state(alloc, ref)


def test_errors_raise_on_runs_and_arrays():
    """Already free, marked down and out of range still raise when the
    node set is a slice-written run."""
    alloc = NodeAllocator(16, down_nodes=[12])
    nodes = alloc.allocate(4, slot=0)
    assert nodes.tolist() == [0, 1, 2, 3]
    with pytest.raises(SchedulingError, match="already free"):
        alloc.release(np.arange(4, 8))
    with pytest.raises(SchedulingError, match="marked down"):
        alloc.release(np.arange(12, 13))
    with pytest.raises(IndexError):
        alloc.release(np.arange(14, 18))
    with pytest.raises(SchedulingError, match="only mark free"):
        alloc.mark_down(np.arange(2, 6))
    with pytest.raises(SchedulingError, match="only mark down"):
        alloc.mark_up(np.arange(11, 13))
    alloc.check_counts()
    alloc.release(nodes[::-1])
    assert alloc.num_free == 15
    assert np.all(alloc.slot_of_node == -1)
