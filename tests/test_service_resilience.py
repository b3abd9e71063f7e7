"""Chaos-hardening tests: fault injection, resume, retry, admission,
deadlines, breaker, drain/restart, and kill-mid-write recovery.

Unit tests cover the :mod:`repro.service.resilience` primitives and the
store's torn-tail healing; the live-server tests each boot a dedicated
small server so injected faults cannot poison shared fixtures.  The
e2e chaos test at the bottom is the acceptance gate: a seeded
:class:`~repro.service.resilience.ChaosPolicy` injects connection
drops, a store write failure, and worker crashes into a multi-job
workload — every job completes exactly once, every stream is
bit-identical to a fault-free run, and the same seed reproduces the
same fault schedule.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import ExaDigiTError
from repro.obs.registry import MetricsRegistry, use_registry
from repro.scenarios import DigitalTwin, Scenario, SyntheticScenario
from repro.service import (
    ChaosPolicy,
    CircuitBreaker,
    RetryPolicy,
    ServiceStore,
    TwinClient,
    TwinServer,
)
from repro.service.resilience import NULL_CHAOS, SITES, resolve_chaos
from repro.viz.export import step_record

from tests.conftest import assert_bitidentical, make_small_spec

SCENARIO = SyntheticScenario(duration_s=600.0, with_cooling=False, seed=3)
#: Long enough to still be running when we inject a fault.
LONG_JOB = SyntheticScenario(duration_s=14400.0, with_cooling=True, seed=8)

#: Fast-paced client policy for tests: tight sleeps, generous attempts.
FAST_RETRY = RetryPolicy(
    max_attempts=8, base_s=0.01, cap_s=0.1, budget_s=30.0, seed=0
)


@pytest.fixture(scope="module")
def spec():
    return make_small_spec()


def direct_records(spec, scenario: Scenario) -> list[dict]:
    return [step_record(s) for s in scenario.iter_steps(DigitalTwin(spec))]


def _wait_until(predicate, timeout_s: float = 30.0, label: str = "state"):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {label}")


def _wait_running(srv, job_id: str) -> None:
    _wait_until(
        lambda: srv.jobs[job_id].state.value == "running",
        label=f"{job_id} running",
    )


# -- ChaosPolicy ---------------------------------------------------------------


def test_chaos_policy_is_seed_deterministic():
    a = ChaosPolicy(42, {"conn_drop": 0.3})
    b = ChaosPolicy(42, {"conn_drop": 0.3})
    outcomes_a = [a.should("conn_drop") for _ in range(200)]
    outcomes_b = [b.should("conn_drop") for _ in range(200)]
    assert outcomes_a == outcomes_b
    assert a.fired("conn_drop") == b.fired("conn_drop")
    assert any(outcomes_a) and not all(outcomes_a)
    # plan() previews the same schedule without consuming it.
    assert tuple(outcomes_a) == a.plan("conn_drop", 200)
    assert a.plan("conn_drop", 200) == a.plan("conn_drop", 200)
    # A different seed produces a different schedule.
    c = ChaosPolicy(43, {"conn_drop": 0.3})
    assert [c.should("conn_drop") for _ in range(200)] != outcomes_a


def test_chaos_sites_are_independent_streams():
    # Interleaving checks of other sites must not shift a site's
    # schedule: the k-th check of a site depends only on (seed, site).
    lone = ChaosPolicy(7, {site: 0.2 for site in SITES})
    interleaved = ChaosPolicy(7, {site: 0.2 for site in SITES})
    lone_outcomes = [lone.should("store_write") for _ in range(50)]
    mixed = []
    for _ in range(50):
        interleaved.should("conn_drop")
        mixed.append(interleaved.should("store_write"))
        interleaved.should("worker_crash")
    assert mixed == lone_outcomes


def test_chaos_policy_validation_and_null():
    with pytest.raises(ExaDigiTError, match="unknown chaos site"):
        ChaosPolicy(1, {"meteor": 1.0})
    # Zero-rate sites never fire but still count checks (the schedule
    # of the other sites is unaffected by disabling one).
    quiet = ChaosPolicy(1, {site: 0.0 for site in SITES})
    assert not any(quiet.should("conn_drop") for _ in range(50))
    assert quiet.snapshot()["sites"]["conn_drop"]["checks"] == 50
    assert resolve_chaos(None) is NULL_CHAOS
    assert not NULL_CHAOS.enabled and NULL_CHAOS.snapshot() == {}
    assert resolve_chaos(5).seed == 5
    policy = ChaosPolicy(9)
    assert resolve_chaos(policy) is policy


# -- RetryPolicy ---------------------------------------------------------------


def test_retry_policy_backoffs_are_jittered_and_capped():
    policy = RetryPolicy(base_s=0.1, cap_s=1.0, multiplier=3.0, seed=11)
    gen = policy.backoffs()
    sleeps = [next(gen) for _ in range(20)]
    assert all(0.1 <= s <= 1.0 for s in sleeps)
    assert max(sleeps) == 1.0  # the cap engages eventually
    # Same seed, same sequence; unseeded policies differ run to run.
    again = [next(RetryPolicy(
        base_s=0.1, cap_s=1.0, multiplier=3.0, seed=11
    ).backoffs()) for _ in range(1)]
    assert again[0] == sleeps[0]


def test_retry_policy_validation():
    with pytest.raises(ExaDigiTError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ExaDigiTError, match="base_s"):
        RetryPolicy(base_s=0.5, cap_s=0.1)
    with pytest.raises(ExaDigiTError, match="budget_s"):
        RetryPolicy(budget_s=-1.0)
    assert RetryPolicy.none().max_attempts == 1


# -- CircuitBreaker ------------------------------------------------------------


def test_circuit_breaker_lifecycle():
    now = [0.0]
    breaker = CircuitBreaker(
        threshold=3, window_s=10.0, cooldown_s=5.0, clock=lambda: now[0]
    )
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.value() == 0.0 and breaker.allow_respawn()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure()  # third failure in the window: open
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.value() == 2.0 and breaker.opens == 1
    assert not breaker.allow_respawn()  # cooling down
    now[0] = 5.1  # past the cooldown: half-open, exactly one probe
    assert breaker.allow_respawn()
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.value() == 1.0
    assert not breaker.allow_respawn()  # second probe denied
    breaker.record_failure()  # probe died: reopen, fresh cooldown
    assert breaker.state == CircuitBreaker.OPEN and breaker.opens == 2
    now[0] = 10.3
    assert breaker.allow_respawn()
    breaker.record_success()  # probe finished a job: closed
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.snapshot() == {
        "state": "closed", "recent_failures": 0, "opens": 2,
    }


def test_circuit_breaker_window_prunes_old_failures():
    now = [0.0]
    breaker = CircuitBreaker(
        threshold=3, window_s=2.0, cooldown_s=1.0, clock=lambda: now[0]
    )
    breaker.record_failure()
    breaker.record_failure()
    now[0] = 5.0  # both failures age out of the window
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    with pytest.raises(ExaDigiTError, match="threshold"):
        CircuitBreaker(threshold=0)


# -- store healing and live streams --------------------------------------------


def test_store_heals_torn_step_tail(spec, tmp_path):
    scenario = SyntheticScenario(
        duration_s=300.0, with_cooling=False, seed=41
    )
    store_dir = tmp_path / "store"
    with TwinServer(spec, workers=1, store=store_dir) as srv:
        client = TwinClient(srv.url)
        job = client.submit(scenario)
        reference = client.steps(job["id"])
        key = srv.jobs[job["id"]].key
    steps_path = store_dir / "steps" / f"{key}.jsonl"
    intact = steps_path.read_bytes()
    # A crash mid-append leaves a half-written final line (no newline).
    steps_path.write_bytes(intact + b'{"torn": tr')
    store = ServiceStore(store_dir, spec)
    assert store.healed >= 1
    assert steps_path.read_bytes() == intact
    hit = store.lookup(key)
    assert hit is not None
    assert_bitidentical(hit[1], reference, label="healed stream")
    # Losing a *complete* line is a count mismatch: a miss (re-run),
    # never a short replay.
    steps_path.write_bytes(b"".join(intact.splitlines(True)[:-1]))
    assert ServiceStore(store_dir, spec).lookup(key) is None


def test_live_step_stream_appends_and_aborts(spec, tmp_path):
    store = ServiceStore(tmp_path / "store", spec)
    stream = store.open_step_stream("k" * 8)
    records = [{"t_s": float(i), "power_w": i * 10.0} for i in range(3)]
    for record in records:
        stream.append(record)
    assert stream.n_written == 3
    stream.close()
    with pytest.raises(Exception, match="closed"):
        stream.append(records[0])
    text = store.steps_path("k" * 8).read_text("utf-8")
    assert len(text.splitlines()) == 3 and text.endswith("\n")
    aborted = store.open_step_stream("gone")
    aborted.append(records[0])
    aborted.abort()
    assert not store.steps_path("gone").exists()


def test_checkpoint_roundtrip_and_corruption(spec, tmp_path):
    store = ServiceStore(tmp_path / "store", spec)
    assert store.take_checkpoint() is None
    doc = {"job_seq": 7, "jobs": [{"id": "j000007"}]}
    store.save_checkpoint(doc)
    assert store.take_checkpoint() == doc
    assert store.take_checkpoint() is None  # consumed
    (store.path / "checkpoint.json").write_text("{torn", "utf-8")
    assert store.take_checkpoint() is None  # corrupt tolerated, removed
    assert not (store.path / "checkpoint.json").exists()


# -- client: timeouts and retries ----------------------------------------------


def test_client_timeout_split_and_compat():
    client = TwinClient("http://127.0.0.1:1")
    assert client.connect_timeout_s == 10.0
    assert client.read_timeout_s == 300.0
    legacy = TwinClient("http://127.0.0.1:1", timeout_s=5.0)
    assert legacy.connect_timeout_s == 5.0
    assert legacy.read_timeout_s == 5.0
    split = TwinClient(
        "http://127.0.0.1:1", connect_timeout_s=1.0, read_timeout_s=60.0
    )
    assert (split.connect_timeout_s, split.read_timeout_s) == (1.0, 60.0)


def test_client_retries_connection_refused_then_raises():
    # Nothing listens on this port: every attempt fails, the policy
    # paces them, and retries land on the repro_retries_total counter.
    client = TwinClient(
        "http://127.0.0.1:9",
        retry=RetryPolicy(max_attempts=3, base_s=0.01, cap_s=0.02, seed=1),
    )
    with use_registry(MetricsRegistry()) as reg:
        with pytest.raises(ExaDigiTError, match="after 3 attempt"):
            client.health()
        assert reg.value("repro_retries_total", op="health") == 2
    strict = TwinClient("http://127.0.0.1:9", retry=RetryPolicy.none())
    with pytest.raises(ExaDigiTError, match="cannot reach"):
        strict.health()


# -- resumable streams ---------------------------------------------------------


def test_from_seq_resumes_ndjson_and_ws(spec, tmp_path):
    reference = direct_records(spec, SCENARIO)
    with TwinServer(spec, workers=1, store=tmp_path / "store") as srv:
        client = TwinClient(srv.url)
        job = client.submit(SCENARIO)
        client.wait(job["id"])
        whole = client.steps(job["id"])
        assert_bitidentical(whole, reference, label="uninterrupted")
        # Resuming mid-stream replays exactly the missing suffix.
        for from_seq in (1, len(reference) // 2, len(reference)):
            docs = list(client.watch(job["id"], from_seq=from_seq))
            assert docs[-1]["event"] == "done"
            assert_bitidentical(
                docs[:-1],
                reference[from_seq:],
                label=f"resume at {from_seq}",
            )
            ws_docs = list(client.watch_ws(job["id"], from_seq=from_seq))
            assert_bitidentical(
                ws_docs[:-1],
                reference[from_seq:],
                label=f"ws resume at {from_seq}",
            )
        # A stale from_seq (beyond the stream) gets an explicit restart
        # event and the full, bit-identical replay.
        docs = list(client.watch(job["id"], from_seq=10_000))
        assert docs[0]["event"] == "restart"
        assert_bitidentical(
            docs[1:-1], reference, label="restart replay"
        )
        assert srv.counters["stream_resumes"] >= 7


def test_resumed_stream_survives_server_restart(spec, tmp_path):
    # A watcher that lost its server mid-stream reconnects to the
    # *next life* (same store) and still ends bit-identical: the job
    # re-runs deterministically, so resuming at "records already held"
    # serves the exact missing suffix.
    reference = direct_records(spec, SCENARIO)
    store = tmp_path / "store"
    with TwinServer(spec, workers=1, store=store) as srv:
        client = TwinClient(srv.url)
        job = client.submit(SCENARIO)
        client.wait(job["id"])
        held = reference[:7]  # pretend the connection died after 7
    with TwinServer(spec, workers=1, store=store) as srv2:
        client2 = TwinClient(srv2.url)
        job2 = client2.submit(SCENARIO)  # same key: cache replay
        docs = list(client2.watch(job2["id"], from_seq=len(held)))
        assert docs[-1]["event"] == "done"
        assert_bitidentical(
            held + docs[:-1], reference, label="cross-life resume"
        )


# -- admission control ---------------------------------------------------------


def test_admission_rejects_when_queue_full(spec, tmp_path):
    with TwinServer(
        spec, workers=1, store=tmp_path / "store", max_queue_depth=1
    ) as srv:
        client = TwinClient(srv.url, retry=RetryPolicy.none())
        running = client.submit(LONG_JOB, use_cache=False)
        _wait_running(srv, running["id"])  # off the queue, on the worker
        queued = client.submit(SCENARIO, use_cache=False)
        with pytest.raises(ExaDigiTError, match="429"):
            client.submit(
                SyntheticScenario(
                    duration_s=300.0, with_cooling=False, seed=5
                ),
                use_cache=False,
            )
        # The raw rejection carries Retry-After and a reason.
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/jobs",
                body=json.dumps(
                    {"scenario": SCENARIO.to_dict(), "use_cache": False}
                ),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            doc = json.loads(response.read().decode("utf-8"))
            assert response.status == 429
            assert response.getheader("Retry-After") == "1"
            assert doc["reason"] == "queue_full"
        finally:
            conn.close()
        assert srv.counters["admission_rejected"] == 2
        # A retrying client rides out the backpressure window.
        patient = TwinClient(srv.url, retry=FAST_RETRY)
        unblock = threading.Timer(
            0.3, lambda: TwinClient(srv.url).cancel(running["id"])
        )
        unblock.start()
        try:
            late = patient.submit(
                SyntheticScenario(
                    duration_s=300.0, with_cooling=False, seed=6
                ),
                use_cache=False,
            )
        finally:
            unblock.join()
        assert patient.wait(late["id"])["state"] == "done"
        assert client.wait(queued["id"])["state"] == "done"


def test_admission_caps_per_client_inflight(spec, tmp_path):
    with TwinServer(
        spec, workers=1, store=tmp_path / "store",
        max_inflight_per_client=1,
    ) as srv:
        alice = TwinClient(srv.url, retry=RetryPolicy.none())
        bob = TwinClient(srv.url, retry=RetryPolicy.none())
        assert alice.client_id != bob.client_id
        first = alice.submit(LONG_JOB, use_cache=False)
        with pytest.raises(ExaDigiTError, match="429"):
            alice.submit(SCENARIO, use_cache=False)
        # The cap is per client: bob is under his own budget.
        theirs = bob.submit(SCENARIO, use_cache=False)
        alice.cancel(first["id"])
        assert bob.wait(theirs["id"])["state"] == "done"
        # With alice's job terminal her budget frees up again.
        assert alice.wait(first["id"])["state"] == "cancelled"
        second = alice.submit(SCENARIO)
        assert alice.wait(second["id"])["state"] == "done"


# -- deadlines -----------------------------------------------------------------


def test_deadline_expires_queued_and_running_jobs(spec, tmp_path):
    with TwinServer(spec, workers=1, store=tmp_path / "store") as srv:
        client = TwinClient(srv.url)
        with pytest.raises(ExaDigiTError, match="deadline_s"):
            client.submit(SCENARIO, deadline_s=-1.0)
        blocker = client.submit(LONG_JOB, use_cache=False)
        # Starved in the queue past its deadline: timeout, never runs.
        starved = client.submit(
            SCENARIO, use_cache=False, deadline_s=0.3
        )
        final = client.wait(starved["id"])
        assert final["state"] == "timeout"
        assert "deadline_s=0.3" in srv.jobs[starved["id"]].error
        # A running job past its deadline is cancelled mid-flight.
        client.cancel(blocker["id"])
        client.wait(blocker["id"])
        running = client.submit(
            SyntheticScenario(duration_s=14400.0, with_cooling=True,
                              seed=13),
            use_cache=False,
            deadline_s=0.5,
        )
        docs = list(client.watch(running["id"]))
        assert docs[-1]["event"] == "timeout"
        assert docs[-1]["job"]["state"] == "timeout"
        assert srv.counters["timeouts"] == 2
        with pytest.raises(ExaDigiTError, match="timeout"):
            client.steps(running["id"])
        health = client.health()
        assert health["counters"]["timeouts"] == 2


# -- circuit breaker on respawn storms -----------------------------------------


def test_breaker_opens_on_crash_storm_and_recovers(spec, tmp_path):
    breaker = CircuitBreaker(threshold=2, window_s=30.0, cooldown_s=0.3)
    with TwinServer(
        spec, workers=1, store=tmp_path / "store",
        max_attempts=10, breaker=breaker,
    ) as srv:
        client = TwinClient(srv.url, retry=FAST_RETRY)
        job = client.submit(LONG_JOB, use_cache=False)
        for expected in (1, 2):  # two real crashes inside the window
            def kill_busy_worker() -> bool:
                handle = srv.pool.workers[0]
                if handle.alive and handle.job_id == job["id"]:
                    handle.process.kill()
                    return True
                return False

            _wait_until(kill_busy_worker, label="worker busy")
            _wait_until(
                lambda: breaker.snapshot()["recent_failures"] >= expected
                or breaker.state != CircuitBreaker.CLOSED,
                label=f"failure {expected} recorded",
            )
        # The storm opened the breaker (it may already be probing
        # half-open by the time we look — the cooldown is short).
        assert breaker.opens >= 1
        assert client.health()["breaker"]["opens"] >= 1
        # Past the cooldown the heartbeat respawns one probe worker,
        # the requeued job finishes, and the breaker closes again.
        assert client.wait(job["id"])["state"] == "done"
        assert breaker.state == CircuitBreaker.CLOSED


# -- graceful drain and restart ------------------------------------------------


def test_drain_checkpoints_queue_and_restart_resumes(spec, tmp_path):
    store = tmp_path / "store"
    queued_scenarios = [
        SyntheticScenario(duration_s=600.0, with_cooling=False, seed=s)
        for s in (51, 52)
    ]
    references = [direct_records(spec, sc) for sc in queued_scenarios]
    with TwinServer(
        spec, workers=1, store=store, drain_grace_s=60.0
    ) as srv:
        client = TwinClient(srv.url)
        running = client.submit(LONG_JOB, use_cache=False)
        _wait_running(srv, running["id"])
        queued = [
            client.submit(sc, use_cache=False) for sc in queued_scenarios
        ]
        doc = client.drain()
        assert doc["draining"] is True
        assert sorted(doc["checkpointed"]) == sorted(
            j["id"] for j in queued
        )
        assert doc["running"] == [running["id"]]
        # Draining: new submissions bounce with 503 + Retry-After.
        strict = TwinClient(srv.url, retry=RetryPolicy.none())
        with pytest.raises(ExaDigiTError, match="503"):
            strict.submit(SCENARIO)
        # The running job finishes inside the grace window, then the
        # server checkpoints and stops itself.
        deadline = time.time() + 120.0
        while not srv.drained and time.time() < deadline:
            time.sleep(0.05)
        assert srv.drained
        assert srv.jobs[running["id"]].state.terminal
        assert (store / "checkpoint.json").exists()
    # A restart on the same store re-enqueues the checkpointed jobs
    # under their original ids and completes them bit-identically.
    with TwinServer(spec, workers=1, store=store) as srv2:
        client2 = TwinClient(srv2.url)
        for job, reference in zip(queued, references):
            assert job["id"] in srv2.jobs
            assert_bitidentical(
                client2.steps(job["id"]),
                reference,
                label=f"restored {job['id']}",
            )
        assert not (store / "checkpoint.json").exists()  # consumed


# -- kill-mid-write recovery ---------------------------------------------------


SERVE_SCRIPT = """
import asyncio, sys
sys.path.insert(0, "src"); sys.path.insert(0, ".")
from tests.conftest import make_small_spec
from repro.service import TwinServer

server = TwinServer(
    make_small_spec(), workers=1, port=0, store=sys.argv[1]
)
asyncio.run(
    server.run_forever(on_start=lambda srv: print(srv.url, flush=True))
)
"""


def _spawn_server(store: Path) -> tuple[subprocess.Popen, str]:
    repo_root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-c", SERVE_SCRIPT, str(store)],
        cwd=repo_root,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    url = proc.stdout.readline().strip()
    if not url.startswith("http"):
        proc.kill()
        raise RuntimeError(f"server failed to start: {url!r}")
    return proc, url


def test_sigkill_mid_write_heals_and_reruns_bitidentically(spec, tmp_path):
    reference = direct_records(spec, LONG_JOB)
    store = tmp_path / "store"
    proc, url = _spawn_server(store)
    try:
        client = TwinClient(url, retry=RetryPolicy.none())
        job = client.submit(LONG_JOB, use_cache=False)
        seen = 0
        with pytest.raises((ExaDigiTError, OSError)):
            for doc in client.watch(job["id"]):
                if "event" not in doc:
                    seen += 1
                if seen == 5:
                    # SIGKILL the whole server mid-job, mid-append: no
                    # atexit, no drain — the live step stream on disk
                    # is torn wherever the last flush landed.
                    os.kill(proc.pid, signal.SIGKILL)
            raise OSError("stream ended")  # job finished too fast
    finally:
        proc.wait(timeout=30)
    # The next life heals the torn tail and refuses to serve the
    # partial stream as a cached result: the job re-runs instead.
    proc2, url2 = _spawn_server(store)
    try:
        client2 = TwinClient(url2, retry=FAST_RETRY)
        job2 = client2.submit(LONG_JOB)
        assert job2["cached"] is False
        assert_bitidentical(
            client2.steps(job2["id"]), reference, label="post-kill rerun"
        )
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc2.kill()
            proc2.wait(timeout=30)


# -- failure visibility --------------------------------------------------------


def test_store_write_fault_reaches_metrics(spec, tmp_path):
    # A chaos store-write failure is no silent failure: besides the
    # legacy /healthz count it lands on /metrics, labelled by site.
    chaos = ChaosPolicy(
        0, {site: 0.0 for site in SITES} | {"store_write": 1.0}
    )
    with TwinServer(
        spec, workers=1, store=tmp_path / "store", chaos=chaos
    ) as srv:
        client = TwinClient(srv.url, retry=FAST_RETRY)
        job = client.submit(SCENARIO, use_cache=False)
        assert client.wait(job["id"])["state"] == "done"
        body = client.metrics_text()
        legacy = srv.counters["persist_errors"]
    sample = 'repro_service_persist_errors_total{site="record"} '
    counts = [
        float(line[len(sample):])
        for line in body.splitlines()
        if line.startswith(sample)
    ]
    assert legacy >= 1
    assert counts == [legacy], body


# -- e2e chaos acceptance ------------------------------------------------------

#: Elevated rates so a short workload exercises every targeted site;
#: CHAOS_SEED is chosen so the seeded schedule is guaranteed to fire a
#: worker crash, a store write failure, and a connection drop within
#: the checks this workload consumes (see the seed-scan note below).
CHAOS_RATES = {
    "worker_crash": 0.02,
    "conn_drop": 0.04,
    "store_write": 0.4,
    "slow_io": 0.1,
    "loop_stall": 0.0,
}
#: plan(105): store_write fires on persist 3, worker_crash on step
#: check 19 (mid-stream in job 1), conn_drop on send 110 — all inside
#: the minimum check counts of this 4-job workload.
CHAOS_SEED = 105
CHAOS_JOBS = [
    SyntheticScenario(duration_s=600.0, with_cooling=False, seed=s)
    for s in (201, 202, 203, 204)
]


def _run_chaos_workload(spec, store: Path, seed: int):
    """One sequential chaos run; returns (per-job steps, chaos policy,
    executed-job count)."""
    chaos = ChaosPolicy(seed, CHAOS_RATES, slow_io_s=0.001, stall_s=0.0)
    with TwinServer(
        spec, workers=1, store=store, max_attempts=4, chaos=chaos
    ) as srv:
        client = TwinClient(srv.url, retry=FAST_RETRY)
        streams = []
        for scenario in CHAOS_JOBS:
            job = client.submit(scenario, use_cache=False)
            streams.append(client.steps(job["id"]))
        executed = srv.counters["executed"]
        assert all(
            record.state.value == "done"
            for record in srv.jobs.values()
        )
    return streams, chaos, executed


def _assert_schedule_matches_seed(chaos: ChaosPolicy) -> None:
    """Every fired fault matches the seed's pure-function schedule.

    How *many* checks a run consumes can wobble (a SIGKILL lands when
    the OS delivers it), but whether the k-th check of a site fires is
    a pure function of (seed, site, k) — the fired indices must be
    exactly the firing positions of ``plan()`` over the consumed
    prefix.
    """
    snapshot = chaos.snapshot()
    for site, info in snapshot["sites"].items():
        plan = chaos.plan(site, info["checks"])
        expected = tuple(i for i, fire in enumerate(plan) if fire)
        assert chaos.fired(site) == expected, (
            f"{site}: fired {chaos.fired(site)} != planned {expected}"
        )


def test_e2e_chaos_workload_is_exactly_once_and_reproducible(
    spec, tmp_path
):
    references = [direct_records(spec, sc) for sc in CHAOS_JOBS]
    streams, chaos, executed = _run_chaos_workload(
        spec, tmp_path / "a", seed=CHAOS_SEED
    )
    # Every job completed exactly once and bit-identically, despite
    # injected connection drops, store write failures, and crashes.
    assert executed == len(CHAOS_JOBS)
    for stream, reference, scenario in zip(
        streams, references, CHAOS_JOBS
    ):
        assert_bitidentical(
            stream, reference, label=f"chaos job seed={scenario.seed}"
        )
    fired = {site: len(chaos.fired(site)) for site in SITES}
    assert fired["conn_drop"] >= 1, f"no conn drops injected: {fired}"
    assert fired["store_write"] >= 1, f"no store faults: {fired}"
    assert fired["worker_crash"] >= 1, f"no crashes: {fired}"
    _assert_schedule_matches_seed(chaos)
    # The same seed reproduces the same fault schedule: a second run
    # fires the identical (seed, site, k) positions and lands the
    # identical streams.
    streams_b, chaos_b, executed_b = _run_chaos_workload(
        spec, tmp_path / "b", seed=CHAOS_SEED
    )
    assert executed_b == executed
    _assert_schedule_matches_seed(chaos_b)
    assert chaos_b.plan("worker_crash", 200) == chaos.plan(
        "worker_crash", 200
    )
    for stream, stream_b in zip(streams, streams_b):
        assert_bitidentical(stream_b, stream, label="replayed schedule")


def test_e2e_chaos_drain_restart_cycle(spec, tmp_path):
    # The drain/restart leg of the acceptance test, chaos still on:
    # a running job finishes under drain, the queued job survives the
    # checkpoint, and the next life (same store, same seed) completes
    # it bit-identically.
    store = tmp_path / "store"
    queued_scenario = SyntheticScenario(
        duration_s=600.0, with_cooling=False, seed=301
    )
    reference = direct_records(spec, queued_scenario)
    chaos = ChaosPolicy(99, {**CHAOS_RATES, "worker_crash": 0.0})
    with TwinServer(
        spec, workers=1, store=store, chaos=chaos, drain_grace_s=60.0
    ) as srv:
        client = TwinClient(srv.url, retry=FAST_RETRY)
        running = client.submit(LONG_JOB, use_cache=False)
        _wait_running(srv, running["id"])
        queued = client.submit(queued_scenario, use_cache=False)
        doc = client.drain()
        assert doc["checkpointed"] == [queued["id"]]
        deadline = time.time() + 120.0
        while not srv.drained and time.time() < deadline:
            time.sleep(0.05)
        assert srv.drained
        assert srv.jobs[running["id"]].state.value == "done"
    with TwinServer(
        spec, workers=1, store=store, chaos=ChaosPolicy(99, CHAOS_RATES)
    ) as srv2:
        client2 = TwinClient(srv2.url, retry=FAST_RETRY)
        assert queued["id"] in srv2.jobs
        assert_bitidentical(
            client2.steps(queued["id"]),
            reference,
            label="chaos drain/restart",
        )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1001, 1002, 1003, 1004, 1005])
def test_chaos_soak_seeded_schedules(spec, tmp_path, seed):
    """CI chaos soak: N seeded schedules, zero lost or corrupted jobs."""
    references = [direct_records(spec, sc) for sc in CHAOS_JOBS]
    streams, snapshot, executed = _run_chaos_workload(
        spec, tmp_path / "soak", seed=seed
    )
    assert executed == len(CHAOS_JOBS)
    for stream, reference in zip(streams, references):
        assert_bitidentical(
            stream, reference, label=f"soak seed={seed}"
        )
