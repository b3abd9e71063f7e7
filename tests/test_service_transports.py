"""Unit tests for the service's transport codecs and scheduling parts.

Everything here runs in-process (no server, no worker processes): the
RFC 6455 frame codec, the shared NDJSON step codec, the work-stealing
queue, the warm-plant cache, and the plant/FMU state snapshot layer the
cache is built on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.schema import CoolingSpec
from repro.cooling.fmu import CoolingFMU
from repro.cooling.plant import CoolingPlant
from repro.core.engine import StepState
from repro.exceptions import ExaDigiTError
from repro.scenarios import SyntheticScenario, WhatIfScenario
from repro.service import WarmStateCache, WorkStealingQueue, estimate_cost
from repro.service.protocol import JobState, job_key
from repro.service.ws import (
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_TEXT,
    FrameReader,
    accept_key,
    encode_frame,
)
from repro.viz.export import decode_step_line, encode_step_line, step_record


# -- websocket codec -----------------------------------------------------------


def test_accept_key_rfc_vector():
    # The worked example from RFC 6455 section 1.3.
    assert (
        accept_key("dGhlIHNhbXBsZSBub25jZQ==")
        == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
    )


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("size", [0, 5, 125, 126, 65535, 65536, 70003])
def test_frame_roundtrip_sizes(masked, size):
    payload = bytes(i % 251 for i in range(size))
    wire = encode_frame(payload, opcode=OP_TEXT, masked=masked)
    frames = FrameReader().feed(wire)
    assert len(frames) == 1
    assert frames[0].opcode == OP_TEXT
    assert frames[0].payload == payload


def test_frame_reader_handles_arbitrary_chunking():
    docs = [f'{{"i": {i}}}' for i in range(7)]
    wire = b"".join(encode_frame(d, masked=True) for d in docs)
    reader = FrameReader()
    seen = []
    for cut in range(0, len(wire), 3):  # dribble 3 bytes at a time
        seen.extend(f.text for f in reader.feed(wire[cut : cut + 3]))
    assert seen == docs


def test_fragmented_message_reassembly():
    part1 = encode_frame(b"hello ", opcode=OP_TEXT, fin=False)
    # A control frame may interleave the fragments (RFC 6455 5.4).
    ping = encode_frame(b"x", opcode=OP_PING)
    part2 = encode_frame(b"world", opcode=OP_CONT, fin=True)
    frames = FrameReader().feed(part1 + ping + part2)
    assert [f.opcode for f in frames] == [OP_PING, OP_TEXT]
    assert frames[-1].payload == b"hello world"


def test_close_frame_and_control_size_cap():
    frames = FrameReader().feed(encode_frame(b"", opcode=OP_CLOSE))
    assert frames[0].opcode == OP_CLOSE
    with pytest.raises(ExaDigiTError):
        encode_frame(b"x" * 126, opcode=OP_CLOSE)


# -- NDJSON step codec ---------------------------------------------------------


def _step(index: int = 3, pue: float = 1.23) -> StepState:
    return StepState(
        index=index,
        time_s=index * 15.0,
        system_power_w=8.1e6,
        loss_w=5.5e5,
        sivoc_loss_w=1.7e5,
        rectifier_loss_w=3.8e5,
        chain_efficiency=0.925,
        utilization=0.5,
        num_running=11,
        cdu_power_w=np.zeros(2),
        cdu_heat_w=np.zeros(2),
        cooling={"pue": np.float64(pue)},
    )


def test_step_line_roundtrip_exact():
    record = step_record(_step())
    assert decode_step_line(encode_step_line(record)) == record
    # StepState accepted directly too.
    assert decode_step_line(encode_step_line(_step())) == record


def test_step_line_nan_encodes_null_and_torn_lines_skip():
    record = step_record(_step(pue=float("nan")))
    line = encode_step_line(record)
    assert "NaN" not in line and "null" in line
    assert decode_step_line(line)["cooling.pue"] is None
    assert decode_step_line("") is None
    assert decode_step_line(line[: len(line) // 2]) is None
    assert decode_step_line("[1, 2]") is None  # non-object line


# -- work stealing -------------------------------------------------------------


def test_queue_places_on_least_loaded_and_takes_fifo():
    q = WorkStealingQueue(2)
    assert q.submit("a", 100.0) == 0
    assert q.submit("b", 10.0) == 1  # worker 0 is loaded
    assert q.submit("c", 10.0) == 1  # 20 < 100
    assert q.take(1) == "b"  # own queue, FIFO
    assert q.take(0) == "a"
    assert len(q) == 1


def test_queue_steals_from_tail_of_most_loaded():
    q = WorkStealingQueue(3)
    q.submit("a", 50.0)  # w0
    q.submit("b", 50.0)  # w1
    q.submit("c", 30.0)  # w2
    q.submit("d", 30.0)  # w2 (60 total)… placement tracks sums
    # Worker 0 drains its own, then must steal: victim is the most
    # loaded deque and the *tail* entry goes (its owner reaches it last).
    assert q.take(0) == "a"
    victim_backlogs = q.backlogs()
    stolen = q.take(0)
    assert stolen is not None
    assert q.steals == 1
    assert q.backlog(victim_backlogs.index(max(victim_backlogs))) < max(
        victim_backlogs
    )


def test_queue_requeue_goes_to_front_and_remove_cancels():
    q = WorkStealingQueue(1)
    q.submit("a", 1.0)
    q.submit("b", 1.0)
    q.requeue("crashed", 5.0)
    assert q.take(0) == "crashed"
    assert q.remove("b") is True
    assert q.remove("b") is False
    assert q.take(0) == "a"
    assert q.take(0) is None


def test_estimate_cost_ordering():
    base = SyntheticScenario(duration_s=3600.0, with_cooling=False)
    coupled = SyntheticScenario(duration_s=3600.0, with_cooling=True)
    fast = SyntheticScenario(
        duration_s=3600.0, with_cooling=False, fidelity="surrogate"
    )
    whatif = WhatIfScenario(duration_s=3600.0)
    assert estimate_cost(fast) < estimate_cost(base)
    assert estimate_cost(base) < estimate_cost(coupled)
    assert estimate_cost(whatif) == pytest.approx(2 * estimate_cost(base))


# -- job protocol --------------------------------------------------------------


def test_job_key_is_content_addressed():
    a = SyntheticScenario(duration_s=1800.0, seed=1)
    b = SyntheticScenario(duration_s=1800.0, seed=1)
    c = SyntheticScenario(duration_s=1800.0, seed=2)
    assert job_key(a, "sha") == job_key(b, "sha")
    assert job_key(a, "sha") != job_key(c, "sha")
    assert job_key(a, "sha") != job_key(a, "other-sha")


def test_job_states_terminal():
    assert not JobState.QUEUED.terminal
    assert not JobState.RUNNING.terminal
    assert JobState.DONE.terminal
    assert JobState.FAILED.terminal
    assert JobState.CANCELLED.terminal


# -- plant / FMU snapshots and the warm cache ---------------------------------


def _mini_cooling() -> CoolingSpec:
    return CoolingSpec(num_cdus=2, racks_per_cdu=1)


def test_plant_snapshot_restore_bit_identical():
    spec = _mini_cooling()
    heat = np.full(spec.num_cdus, 2.0e5)
    plant = CoolingPlant(spec)
    plant.step(heat, 15.0)  # some transient state
    snap = plant.snapshot()
    after_a = [plant.step(heat, 18.0).as_output_vector() for _ in range(3)]
    plant.restore(snap)
    after_b = [plant.step(heat, 18.0).as_output_vector() for _ in range(3)]
    for a, b in zip(after_a, after_b):
        np.testing.assert_array_equal(a, b)


def test_fmu_state_roundtrip_bit_identical():
    spec = _mini_cooling()
    heat = np.full(spec.num_cdus, 2.0e5)
    fmu = CoolingFMU(spec)
    fmu.setup_experiment()
    fmu.set_cdu_heat(heat)
    fmu.set_wetbulb(15.0)
    fmu.do_step(0.0)
    snap = fmu.get_fmu_state()
    a = []
    for _ in range(2):
        fmu.do_step(fmu.time)
        a.append(fmu.get_outputs())
    fmu.set_fmu_state(snap)
    b = []
    for _ in range(2):
        fmu.do_step(fmu.time)
        b.append(fmu.get_outputs())
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_warm_cache_hit_is_bit_identical_to_cold_run(small_spec):
    from repro.scenarios import DigitalTwin

    scenario = SyntheticScenario(
        duration_s=300.0, with_cooling=True, seed=1
    )
    cold = [
        step_record(s)
        for s in scenario.iter_steps(DigitalTwin(small_spec))
    ]
    cache = WarmStateCache()
    warm_twin = DigitalTwin(small_spec, warm_cache=cache)
    miss = [step_record(s) for s in scenario.iter_steps(warm_twin)]
    hit = [step_record(s) for s in scenario.iter_steps(warm_twin)]
    assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
    assert miss == cold
    assert hit == cold


def test_warm_cache_bypassed_under_chain_overrides(small_spec):
    # A conversion-chain override changes the idle heat the warmup runs
    # at; such engines must not share warmed state with baseline runs.
    from repro.core.engine import RapsEngine
    from repro.core.whatif import _make_chain

    cache = WarmStateCache()
    modified = RapsEngine(
        small_spec,
        chain=_make_chain(small_spec, "direct-dc"),
        warm_cache=cache,
    )
    modified.run([], 300.0)
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}
    RapsEngine(small_spec, warm_cache=cache).run([], 300.0)
    assert cache.stats() == {"hits": 0, "misses": 1, "entries": 1}
    RapsEngine(small_spec, warm_cache=cache).run([], 300.0)
    assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}


def test_warm_cache_spec_memo_checks_identity(small_spec):
    cache = WarmStateCache()
    first = cache.key(small_spec, 15.0, 1800.0, 3.0)[0]
    # A different spec presented at the same id() must re-hash: the
    # memo keeps the spec object alive and compares identity.
    from tests.conftest import make_small_spec

    other = make_small_spec(total_nodes=128)
    assert cache.key(other, 15.0, 1800.0, 3.0)[0] != first


def test_warm_cache_keys_and_lru(small_spec):
    cache = WarmStateCache(max_entries=2)
    k1 = cache.key(small_spec, 15.0, 1800.0, 3.0)
    k2 = cache.key(small_spec, 20.0, 1800.0, 3.0)
    assert k1 != k2  # wet-bulb is part of the warmup trajectory
    cache.store(small_spec, 15.0, 1800.0, 3.0, "s1")
    cache.store(small_spec, 20.0, 1800.0, 3.0, "s2")
    cache.store(small_spec, 25.0, 1800.0, 3.0, "s3")  # evicts 15.0 (LRU)
    assert cache.lookup(small_spec, 15.0, 1800.0, 3.0) is None
    assert cache.lookup(small_spec, 20.0, 1800.0, 3.0) == "s2"
    assert len(cache) == 2
